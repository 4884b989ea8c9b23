"""Poisson-type kernels for the symmetrized expansion, on two routes.

Series route: mode sums over the trigonometric Jacobi polynomials,

    H_t(theta, phi)  = (1/2) sum_n e^{-t sqrt(lam_n)} Ptrig_n(theta) Ptrig_n(phi),
    Ht_t(theta, phi) = (1/4) sin(theta) sin(phi) H_t^{(alpha+1,beta+1)}(theta, phi),

with the symmetrized kernel HH = H + Ht.  Truncation is driven by the tail
bound exp(-t sqrt(lam_n)) n^{2(alpha+beta+2)+extra} < 1e-14 with a hard mode
cap, raising ConvergenceError when the cap cannot meet the bound.

Integral route (parameters >= -1/2): a double average against the normalized
product-formula measures,

    H_t = c sinh(t/2) integral integral (cosh(t/2) - 1 + q)^{-alpha-beta-2}
              dPi_alpha(u) dPi_beta(v),
    q   = 1 - u sin(theta/2) sin(phi/2) - v cos(theta/2) cos(phi/2),

with c = 2^{-alpha-beta-2} / mass(dmu+).  The reflected part uses the shifted
measures and exponent; both routes must agree, which the tests enforce.  The
double average runs on the corner-graded rule of symjacobi.product, graded
toward u = v = 1 down to a fraction of the smallest cosh(t/2) - 1 + q, so
small t near the diagonal is resolved by more cells, not by a finer tensor
grid; poisson_kernel_dk_auto raises the Gauss nodes per cell until two
counts agree at each point.

Also here: mode_sum, the one damped half-line mode sum behind the series
route, the estimate tails and the derivative kernels (time derivatives and
iterated one-sided lowering compositions, reduced to closed mode-wise
factors), and the two norms in the time variable used by square functions and
maximal operators.  A kernel profile has one name on both routes, the spec
(parity, th_op, ph_op, m) that mode_sum and product.HeadKernels.profile take.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import ModeRows, mode_eigenvalues, phi_table, sym_eigenvalue
from .core import JacobiParams, eigenvalue
from .product import HeadKernels, cosh_half_minus_one
from .quadrature import composite_gauss

__all__ = [
    "ConvergenceError",
    "AccuracyWarning",
    "q_fn",
    "q_theta",
    "n_max_for",
    "mode_sum",
    "poisson_kernel_series",
    "poisson_kernel_dk",
    "poisson_kernel_dk_auto",
    "tilde_kernel",
    "symmetrized_kernel",
    "symmetrized_kernel_mode_sum",
    "kernel_derivative",
    "semigroup_mass",
    "SupOverT",
    "L2TWeighted",
    "bnorm",
]

MODE_CAP = 4096
TAIL_TOL = 1e-14
# Gauss nodes per cell side of the integral route's corner rule, and the
# agreement and node cap at which poisson_kernel_dk_auto stops raising them
DK_NODES = 12
DK_REL_TOL = 1e-8
DK_MAX_NODES = 32


class ConvergenceError(RuntimeError):
    """Raised when the mode cap cannot push the series tail below tolerance."""


class AccuracyWarning(UserWarning):
    """Signals an integral-route value that did not converge to its tolerance."""


def q_fn(theta, phi, u, v) -> np.ndarray:
    """q(theta, phi, u, v) = 1 - u sin(theta/2) sin(phi/2) - v cos(theta/2) cos(phi/2).

    Ranges over [0, 2] for |u|, |v| <= 1; vanishes only at u = v = 1 and
    theta = phi.  Arguments broadcast.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return (
        1.0
        - np.asarray(u) * np.sin(theta / 2.0) * np.sin(phi / 2.0)
        - np.asarray(v) * np.cos(theta / 2.0) * np.cos(phi / 2.0)
    )


def q_theta(theta, phi, u, v) -> np.ndarray:
    """First theta-derivative of q:
    -(u/2) cos(theta/2) sin(phi/2) + (v/2) sin(theta/2) cos(phi/2)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return -0.5 * np.asarray(u) * np.cos(theta / 2.0) * np.sin(phi / 2.0) + 0.5 * np.asarray(
        v
    ) * np.sin(theta / 2.0) * np.cos(phi / 2.0)


def n_max_for(params: JacobiParams, t: float, extra_power: float = 0.0) -> int:
    """Smallest mode count whose tail bound
    exp(-t sqrt(lam_n)) (n+1)^{2(alpha+beta+2)+extra_power} drops below
    TAIL_TOL = 1e-14, searched up to MODE_CAP = 4096 modes.

    Raises ValueError unless t is positive and finite, and ConvergenceError
    when the cap cannot meet the bound (small t).
    """
    if not 0.0 < t < np.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    n = np.arange(1, MODE_CAP + 1, dtype=float)
    expo = 2.0 * (params.alpha + params.beta + 2.0) + extra_power
    log_bound = -t * np.sqrt(eigenvalue(params, n)) + expo * np.log(n + 1.0)
    ok = np.nonzero(log_bound < np.log(TAIL_TOL))[0]
    if ok.size == 0:
        raise ConvergenceError(
            f"mode cap {MODE_CAP} leaves tail bound exp({log_bound[-1]:.2f}) at t={t}; "
            "the series route cannot converge here"
        )
    return int(ok[0] + 1)


def mode_sum(params: JacobiParams, spec, t, theta, phi, pairs=0, n_modes=None) -> np.ndarray:
    """Damped half-line mode sum, shape (len(t),) + the broadcast shape of
    theta and phi (scalars count as one point):

        (1/2) sum_n (-sqrt(lam_n))^m (lam_n - lam_0)^pairs e^{-t sqrt(lam_n)}
              A_n(theta) B_n(phi)

    for the profile spec = (parity, th_op, ph_op, m), which
    product.HeadKernels.profile takes too: over the "even" or "odd" family,
    with theta broadcast against phi.  The rows A and B come from one
    basis.ModeRows per input (mode_table's half-line rows), each on its own
    input's shape: an outer grid theta[:, None], phi[None, :] costs I + J
    rows and no I x J operand is built.  th_op and ph_op are a derivative
    order (0, 1 or 2), or "low" / "low1" for the odd family's adjoint
    lowering and its first derivative.  Each pair of lowerings contributes
    one gap factor, which `pairs` supplies.  By default the mode count meets
    the tail bound with four extra powers at the smallest t.
    """
    th_rows, ph_rows = (ModeRows(np.atleast_1d(x)) for x in (theta, phi))
    return mode_sum_rows(params, spec, t, th_rows, ph_rows, pairs, n_modes)


def _row_args(op):
    """The ModeRows (order, lowered) of a spec's th_op or ph_op."""
    return {"low": 0, "low1": 1}.get(op, op), op in ("low", "low1")


def _default_modes(params, t) -> int:
    """mode_sum's mode count: the tail bound with four extra powers at the
    smallest t."""
    return n_max_for(params, float(np.min(t)), extra_power=4.0) + 1


def stack_mode_rows(params, sums, rows) -> None:
    """Build, in one stacked recurrence pass over the store of rows (a
    basis.ModeRows), the polynomial table of every parameter set that
    mode_sum_rows reads for the (spec, t) pairs in sums, long enough for
    the longest sum at the default mode count: the sums then read leading
    rows of these tables, bitwise those of their own.  No sums, no pass."""
    if not sums:
        return
    families = {}
    for (parity, th_op, ph_op, _), _ in sums:
        for op in (th_op, ph_op):
            families.update(dict.fromkeys(ModeRows.reads(params, parity, *_row_args(op))))
    rows.build(families, max(_default_modes(params, t) for _, t in sums))


def mode_sum_rows(params, spec, t, th_rows, ph_rows, pairs=0, n_modes=None):
    """mode_sum with the theta and phi rows read from two basis.ModeRows, so
    that the sums of one evaluation pass share their row tables."""
    parity, th_op, ph_op, m = spec
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if n_modes is None:
        n_modes = _default_modes(params, t)
    lam = mode_eigenvalues(params, n_modes, parity)
    root = np.sqrt(lam)
    decay = np.exp(-np.outer(t, root))
    if m:
        decay = decay * (-root) ** m
    if pairs:
        decay = decay * (lam - params.lam0) ** pairs

    def rows(op, table):
        return table(params, n_modes, parity, *_row_args(op))

    return 0.5 * np.einsum("tn,n...,n...->t...", decay, rows(th_op, th_rows), rows(ph_op, ph_rows))


def poisson_kernel_series(params: JacobiParams, t: float, theta, phi) -> np.ndarray:
    """Half-kernel H_t(theta, phi) by the mode sum (series route), on the
    broadcast shape of theta and phi; one mode_sum call, so an outer grid
    theta[:, None], phi[None, :] builds I + J mode rows."""
    nmax = n_max_for(params, t)
    vals = mode_sum(params, ("even", 0, 0, 0), t, theta, phi, n_modes=nmax + 1)
    return vals.reshape(np.broadcast_shapes(np.shape(theta), np.shape(phi)))


def _dk_eval(params: JacobiParams, t: float, theta, phi, spec, nodes=None):
    """The HeadKernels profile of a mode_sum spec (parity, th_op, ph_op, m)
    on the integral route at each point, with the given nodes per cell side.

    The angles must lie in [-pi, pi], and t must be positive with sinh(t/2)
    and cosh(t/2) - 1 finite (t up to about 1420.9)."""
    if not params.kernel_valid:
        raise ValueError("integral route needs alpha, beta >= -1/2")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.sinh(t / 2.0)) and np.isfinite(cosh_half_minus_one(t))
    if not finite:
        raise ValueError(f"time t={t} overflows sinh(t/2) or cosh(t/2) - 1 on the integral route")
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    for name, angle in (("theta", theta), ("phi", phi)):
        outside = np.abs(angle) > np.pi
        if outside.any():
            raise ValueError(
                f"angle {name}={angle[outside].flat[0]} lies outside the kernel domain [-pi, pi]"
            )
    times = np.array([float(t)])
    head = HeadKernels(params, theta.ravel(), phi.ravel(), times, nodes=nodes or DK_NODES)
    return head.profile(spec)[0].reshape(theta.shape)


def poisson_kernel_dk(params: JacobiParams, t: float, theta, phi, nodes: int | None = None):
    """Half-kernel H_t by the double product-formula average (integral route),
    with `nodes` Gauss points per cell side of the corner rule (DK_NODES by
    default).  Valid for alpha, beta >= -1/2."""
    return _dk_eval(params, t, theta, phi, ("even", 0, 0, 0), nodes)


def poisson_kernel_dk_auto(params: JacobiParams, t: float, theta, phi) -> np.ndarray:
    """Integral-route kernel with the Gauss nodes per cell side raised by four,
    from four below DK_NODES, until two consecutive counts agree to
    DK_REL_TOL = 1e-8.  Convergence is per point: each point keeps the value
    at its own first agreeing count, so it does not depend on the other
    points of the call.  Points still apart at DK_MAX_NODES = 32 keep that
    count's value, and the call leaves one AccuracyWarning standing."""
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    n = DK_NODES - 4
    vals = poisson_kernel_dk(params, t, theta, phi, n)
    todo = np.ones(theta.shape, dtype=bool)
    while todo.any():
        n = min(n + 4, DK_MAX_NODES)
        new = poisson_kernel_dk(params, t, theta[todo], phi[todo], n)
        gap = np.abs(new - vals[todo]) / np.maximum(np.abs(new), 1e-300)
        vals[todo] = new
        todo[todo] = ~(gap <= DK_REL_TOL)
        if todo.any() and n >= DK_MAX_NODES:
            warnings.warn(
                f"integral route not converged to {DK_REL_TOL:.1e} at {n} nodes per cell "
                f"at {int(todo.sum())} points; avoid t -> 0 near the diagonal",
                AccuracyWarning,
            )
            break
    return vals


def tilde_kernel(params: JacobiParams, t: float, theta, phi, route: str = "series"):
    """Reflected (odd) part Ht_t = (1/4) sin(theta) sin(phi) H_t^{(alpha+1,beta+1)}."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shifted = params.shifted()
    if route == "series":
        core = poisson_kernel_series(shifted, t, theta, phi)
    elif route == "dk":
        core = poisson_kernel_dk(shifted, t, theta, phi)
    else:
        raise ValueError(f"unknown route {route!r}")
    return 0.25 * np.sin(theta) * np.sin(phi) * core


def symmetrized_kernel(params: JacobiParams, t: float, theta, phi, route: str = "series"):
    """Full kernel HH_t = H_t + Ht_t on (-pi, pi) x (-pi, pi)."""
    if route == "series":
        half = poisson_kernel_series(params, t, theta, phi)
    elif route == "dk":
        half = poisson_kernel_dk(params, t, theta, phi)
    else:
        raise ValueError(f"unknown route {route!r}")
    return half + tilde_kernel(params, t, theta, phi, route=route)


def symmetrized_kernel_mode_sum(params: JacobiParams, t: float, theta, phi) -> np.ndarray:
    """HH_t summed directly over the symmetrized basis (independent route for
    the decomposition check): sum_n e^{-t sqrt(lam_{<n>})} Phi_n(theta) Phi_n(phi)."""
    nmax = 2 * n_max_for(params, t) + 1
    n = np.arange(nmax + 1)
    damp = np.exp(-t * np.sqrt(sym_eigenvalue(params, n)))
    tab_th = phi_table(params, nmax, theta)
    tab_ph = phi_table(params, nmax, phi)
    return np.einsum("n,n...,n...->...", damp, tab_th, tab_ph)


def kernel_derivative(
    params: JacobiParams,
    t: float,
    theta,
    phi,
    m: int = 0,
    n_delta: int = 0,
    parity: str = "even",
    route: str = "series",
) -> np.ndarray:
    """Time derivatives and lowering compositions of the kernel parts.

    Series route (any orders): one mode_sum, the composition acting
    mode-wise.  For the even part the degree-n term picks up (-sqrt(lam_n))^m
    from time and (lam_n - lam_0)^{floor(N/2)} from pairs of lowerings, with
    an odd leftover lowering replacing the theta-factor by its first-order
    image.  The odd (reflected) part works the same through the shifted family.

    Integral route: the HeadKernels profile of the same mode_sum spec,
    implemented for m + n_delta <= 1 (first-order differentiation under the
    double average), used for cross-validation.

    Parameters
    ----------
    m : int
        Time-derivative order.
    n_delta : int
        Number of one-sided lowering applications in theta.
    parity : str
        "even" acts on H, "odd" on the reflected part.
    """
    if m < 0 or n_delta < 0:
        raise ValueError("derivative orders must be nonnegative")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    pairs, odd_left = divmod(n_delta, 2)
    # one leftover lowering is the plain derivative on the even family and
    # the adjoint lowering onto P_{n+1} on the odd family
    spec = (parity, ("low" if parity == "odd" else 1) if odd_left else 0, 0, m)
    if route == "dk":
        if m + n_delta > 1:
            raise NotImplementedError("integral route carries first-order derivatives only")
        return _dk_eval(params, t, theta, phi, spec)
    if route != "series":
        raise ValueError(f"unknown route {route!r}")
    nmax = n_max_for(params, t, extra_power=float(m + n_delta))
    vals = mode_sum(params, spec, t, theta, phi, pairs, nmax + 1)
    return vals.reshape(np.broadcast_shapes(np.shape(theta), np.shape(phi)))


def semigroup_mass(params: JacobiParams, t: float) -> float:
    """Integral of H_t(theta, .) over dmu+: e^{-t sqrt(lam_0)} / 2, which is
    e^{-t |alpha+beta+1| / 2} / 2 on both sides of the critical line and 1/2
    on it, at every t up to and including infinity."""
    if params.critical:
        return 0.5
    return 0.5 * float(np.exp(-t * abs(params.alpha + params.beta + 1.0) / 2.0))


@dataclass(frozen=True)
class SupOverT:
    """Sup norm over a fixed log-spaced time grid (reproducibility contract:
    the grid is part of the norm's definition): T_MIN = 1e-4 to T_MAX = 50
    with POINTS_PER_DECADE = 200 points per decade, 1141 times in all."""

    T_MIN = 1e-4
    T_MAX = 50.0
    POINTS_PER_DECADE = 200

    def grid(self) -> np.ndarray:
        decades = np.log10(self.T_MAX / self.T_MIN)
        count = int(np.ceil(decades * self.POINTS_PER_DECADE)) + 1
        return np.geomspace(self.T_MIN, self.T_MAX, count)


@dataclass(frozen=True)
class L2TWeighted:
    """L^2 norm against t^{2(m+n)-1} dt, by composite Gauss in log time with
    the upper truncation chosen so the slowest surviving mode's tail integral
    falls below 1e-16 relative.  The grid starts at T_LO = 1e-10, has
    POINTS_PER_DECADE = 30 points per decade, and its panels carry
    NODES_PER_PANEL = 8 Gauss points each."""

    T_LO = 1e-10
    POINTS_PER_DECADE = 30
    NODES_PER_PANEL = 8

    m: int
    n: int
    lam_min: float

    @property
    def weight_power(self) -> float:
        w = 2 * (self.m + self.n) - 1
        if w < 0:
            raise ValueError("weighted norm needs m + n >= 1")
        return float(w)

    def t_hi(self) -> float:
        if self.lam_min <= 0:
            raise ValueError("tail truncation needs a positive smallest eigenvalue")
        s = np.sqrt(self.lam_min)
        w = self.weight_power
        t = max(1.0, w / (2.0 * s))
        # grow until the analytic tail bound e^{-2ts} t^w / (2s) is negligible
        # next to the full Gamma integral of the bottom mode
        full = math.lgamma(w + 1.0) - (w + 1.0) * np.log(2.0 * s)
        while -2.0 * t * s + w * np.log(t) - np.log(2.0 * s) > full + np.log(1e-16):
            t *= 1.5
        return t

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights in t for integrating f(t) t^w dt."""
        s_lo, s_hi = np.log(self.T_LO), np.log(self.t_hi())
        panels = max(1, int(np.ceil((s_hi - s_lo) / np.log(10.0) * self.POINTS_PER_DECADE / self.NODES_PER_PANEL)))
        edges = np.linspace(s_lo, s_hi, panels + 1)
        s_nodes, s_weights = composite_gauss(edges, self.NODES_PER_PANEL)
        t_nodes = np.exp(s_nodes)
        # dt = t ds and the measure weight t^w
        t_weights = s_weights * t_nodes ** (self.weight_power + 1.0)
        return t_nodes, t_weights


def bnorm(f, spec) -> float:
    """Norm in the time variable of a scalar-valued function f(t) (vectorized
    over a time array), per the given norm definition (SupOverT or
    L2TWeighted)."""
    if isinstance(spec, SupOverT):
        grid = spec.grid()
        return float(np.max(np.abs(np.asarray(f(grid), dtype=float))))
    if isinstance(spec, L2TWeighted):
        t, w = spec.grid()
        vals = np.asarray(f(t), dtype=float)
        return float(np.sqrt(np.dot(w, vals**2)))
    raise TypeError(f"unknown time-norm definition {spec!r}")
