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
maximal operators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import mode_eigenvalues, mode_table, phi_table, sym_eigenvalue
from .core import JacobiParams, eigenvalue
from .product import HeadKernels
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
# Gauss nodes per cell side of the integral route's corner rule
DK_NODES = 12


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


def n_max_for(
    params: JacobiParams,
    t: float,
    extra_power: float = 0.0,
    tol: float = TAIL_TOL,
    cap: int = MODE_CAP,
) -> int:
    """Smallest mode count whose tail bound
    exp(-t sqrt(lam_n)) (n+1)^{2(alpha+beta+2)+extra_power} drops below tol.

    Raises ConvergenceError when the cap cannot meet the bound (small t).
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    n = np.arange(1, cap + 1, dtype=float)
    expo = 2.0 * (params.alpha + params.beta + 2.0) + extra_power
    log_bound = -t * np.sqrt(eigenvalue(params, n)) + expo * np.log(n + 1.0)
    ok = np.nonzero(log_bound < np.log(tol))[0]
    if ok.size == 0:
        raise ConvergenceError(
            f"mode cap {cap} leaves tail bound exp({log_bound[-1]:.2f}) at t={t}; "
            "the series route cannot converge here"
        )
    return int(ok[0] + 1)


def mode_sum(
    params: JacobiParams, parity: str, t, theta, phi, th_op=0, ph_op=0, m=0, pairs=0, n_modes=None
) -> np.ndarray:
    """Damped half-line mode sum, shape (len(t), len(theta)):

        (1/2) sum_n (-sqrt(lam_n))^m (lam_n - lam_0)^pairs e^{-t sqrt(lam_n)}
              A_n(theta) B_n(phi)

    over the "even" or "odd" family, with theta and phi paired elementwise.
    The rows A and B come from basis.mode_table: th_op and ph_op are a
    derivative order (0, 1 or 2), or "low" / "low1" for the odd family's
    adjoint lowering and its first derivative.  Each pair of lowerings
    contributes one gap factor, which `pairs` supplies.  By default the mode
    count meets the tail bound with four extra powers at the smallest t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if n_modes is None:
        n_modes = n_max_for(params, float(np.min(t)), extra_power=4.0) + 1
    lam = mode_eigenvalues(params, n_modes, parity)
    root = np.sqrt(lam)
    decay = np.exp(-np.outer(t, root))
    if m:
        decay = decay * (-root) ** m
    if pairs:
        decay = decay * (lam - params.lam0) ** pairs

    def rows(op, x):
        order = {"low": 0, "low1": 1}.get(op, op)
        return mode_table(params, n_modes, x, parity, order, lowered=op in ("low", "low1"))

    return 0.5 * np.einsum("tn,np,np->tp", decay, rows(th_op, theta), rows(ph_op, phi))


def poisson_kernel_series(
    params: JacobiParams, t: float, theta, phi, nmax: int | None = None
) -> np.ndarray:
    """Half-kernel H_t(theta, phi) by the mode sum (series route)."""
    if nmax is None:
        nmax = n_max_for(params, t)
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    vals = mode_sum(params, "even", t, theta.ravel(), phi.ravel(), n_modes=nmax + 1)
    return vals.reshape(theta.shape)


def _dk_eval(params: JacobiParams, t: float, theta, phi, name: str, nodes=None):
    """One HeadKernels profile (H, Ht, a first derivative or lowering) of the
    integral route at each point, with the given nodes per cell side."""
    if not params.kernel_valid:
        raise ValueError("integral route needs alpha, beta >= -1/2")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    times = np.array([float(t)])
    head = HeadKernels(params, theta.ravel(), phi.ravel(), times, nodes=nodes or DK_NODES)
    return getattr(head, name)()[0].reshape(theta.shape)


def poisson_kernel_dk(params: JacobiParams, t: float, theta, phi, nodes: int | None = None):
    """Half-kernel H_t by the double product-formula average (integral route),
    with `nodes` Gauss points per cell side of the corner rule (DK_NODES by
    default).  Valid for alpha, beta >= -1/2."""
    return _dk_eval(params, t, theta, phi, "H", nodes)


def poisson_kernel_dk_auto(
    params: JacobiParams,
    t: float,
    theta,
    phi,
    rel_tol: float = 1e-8,
    max_nodes: int = 32,
) -> np.ndarray:
    """Integral-route kernel with the Gauss nodes per cell side raised by four,
    from four below DK_NODES, until two consecutive counts agree to rel_tol.
    Convergence is per point: each point keeps the value at its own first
    agreeing count, so it does not depend on the other points of the call.
    Points still apart at max_nodes keep that count's value, and the call
    leaves one AccuracyWarning standing."""
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    n = DK_NODES - 4
    vals = poisson_kernel_dk(params, t, theta, phi, n)
    todo = np.ones(theta.shape, dtype=bool)
    while todo.any():
        n = min(n + 4, max_nodes)
        new = poisson_kernel_dk(params, t, theta[todo], phi[todo], n)
        gap = np.abs(new - vals[todo]) / np.maximum(np.abs(new), 1e-300)
        vals[todo] = new
        todo[todo] = ~(gap <= rel_tol)
        if todo.any() and n >= max_nodes:
            warnings.warn(
                f"integral route not converged to {rel_tol:.1e} at {n} nodes per cell "
                f"at {int(todo.sum())} points; avoid t -> 0 near the diagonal",
                AccuracyWarning,
            )
            break
    return vals


def tilde_kernel(params: JacobiParams, t: float, theta, phi, route: str = "series", **kw):
    """Reflected (odd) part Ht_t = (1/4) sin(theta) sin(phi) H_t^{(alpha+1,beta+1)}."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shifted = params.shifted()
    if route == "series":
        core = poisson_kernel_series(shifted, t, theta, phi, **kw)
    elif route == "dk":
        core = poisson_kernel_dk(shifted, t, theta, phi, **kw)
    else:
        raise ValueError(f"unknown route {route!r}")
    return 0.25 * np.sin(theta) * np.sin(phi) * core


def symmetrized_kernel(params: JacobiParams, t: float, theta, phi, route: str = "series", **kw):
    """Full kernel HH_t = H_t + Ht_t on (-pi, pi) x (-pi, pi)."""
    if route == "series":
        half = poisson_kernel_series(params, t, theta, phi, **kw)
    elif route == "dk":
        half = poisson_kernel_dk(params, t, theta, phi, **kw)
    else:
        raise ValueError(f"unknown route {route!r}")
    return half + tilde_kernel(params, t, theta, phi, route=route, **kw)


def symmetrized_kernel_mode_sum(
    params: JacobiParams, t: float, theta, phi, nmax: int | None = None
) -> np.ndarray:
    """HH_t summed directly over the symmetrized basis (independent route for
    the decomposition check): sum_n e^{-t sqrt(lam_{<n>})} Phi_n(theta) Phi_n(phi)."""
    if nmax is None:
        nmax = 2 * n_max_for(params, t) + 1
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    shape = theta.shape
    n = np.arange(nmax + 1)
    damp = np.exp(-t * np.sqrt(sym_eigenvalue(params, n)))
    tab_th = phi_table(params, nmax, theta.ravel())
    tab_ph = phi_table(params, nmax, phi.ravel())
    vals = np.einsum("n,nk,nk->k", damp, tab_th, tab_ph)
    return vals.reshape(shape)


def kernel_derivative(
    params: JacobiParams,
    t: float,
    theta,
    phi,
    m: int = 0,
    n_delta: int = 0,
    parity: str = "even",
    route: str = "series",
    nmax: int | None = None,
) -> np.ndarray:
    """Time derivatives and lowering compositions of the kernel parts.

    Series route (any orders): one mode_sum, the composition acting
    mode-wise.  For the even part the degree-n term picks up (-sqrt(lam_n))^m
    from time and (lam_n - lam_0)^{floor(N/2)} from pairs of lowerings, with
    an odd leftover lowering replacing the theta-factor by its first-order
    image.  The odd (reflected) part works the same through the shifted family.

    Integral route: implemented for m + n_delta <= 1 (first-order
    differentiation under the double average), used for cross-validation.

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
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    if route == "dk":
        if m + n_delta > 1:
            raise NotImplementedError("integral route carries first-order derivatives only")
        names = ("H", "H_dt", "H_dth") if parity == "even" else ("Ht", "Ht_dt", "Ht_low")
        return _dk_eval(params, t, theta, phi, names[m + 2 * n_delta])
    if route != "series":
        raise ValueError(f"unknown route {route!r}")
    if nmax is None:
        nmax = n_max_for(params, t, extra_power=float(m + n_delta))
    pairs, odd_left = divmod(n_delta, 2)
    # one leftover lowering is the plain derivative on the even family and
    # the adjoint lowering onto P_{n+1} on the odd family
    th_op = ("low" if parity == "odd" else 1) if odd_left else 0
    vals = mode_sum(
        params, parity, t, theta.ravel(), phi.ravel(), th_op, 0, m, pairs, nmax + 1
    )
    return vals.reshape(theta.shape)


def semigroup_mass(params: JacobiParams, t: float) -> float:
    """Integral of H_t(theta, .) over dmu+: e^{-t sqrt(lam_0)} / 2, which is
    e^{-t |alpha+beta+1| / 2} / 2 on both sides of the critical line."""
    return 0.5 * float(np.exp(-t * abs(params.alpha + params.beta + 1.0) / 2.0))


@dataclass(frozen=True)
class SupOverT:
    """Sup norm over a fixed log-spaced time grid (reproducibility contract:
    the grid is part of the norm's definition)."""

    t_min: float = 1e-4
    t_max: float = 50.0
    points_per_decade: int = 200

    def grid(self) -> np.ndarray:
        decades = np.log10(self.t_max / self.t_min)
        count = int(np.ceil(decades * self.points_per_decade)) + 1
        return np.geomspace(self.t_min, self.t_max, count)


@dataclass(frozen=True)
class L2TWeighted:
    """L^2 norm against t^{2(m+n)-1} dt, by composite Gauss in log time with
    the upper truncation chosen so the slowest surviving mode's tail integral
    falls below 1e-16 relative."""

    m: int
    n: int
    lam_min: float
    t_lo: float = 1e-10
    points_per_decade: int = 30
    nodes_per_panel: int = 8

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
        s_lo, s_hi = np.log(self.t_lo), np.log(self.t_hi())
        panels = max(1, int(np.ceil((s_hi - s_lo) / np.log(10.0) * self.points_per_decade / self.nodes_per_panel)))
        edges = np.linspace(s_lo, s_hi, panels + 1)
        s_nodes, s_weights = composite_gauss(edges, self.nodes_per_panel)
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
