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
counts agree.

Also here: derivative kernels (time derivatives and iterated one-sided
lowering compositions, reduced to closed mode-wise factors on the series
route), and the two norms in the time variable used by square functions and
maximal operators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import JacobiParams, eigenvalue, trig_poly_table
from .product import HeadKernels, cosh_half_minus_one
from .quadrature import composite_gauss

__all__ = [
    "ConvergenceError",
    "AccuracyWarning",
    "q_fn",
    "q_theta",
    "psi",
    "n_max_for",
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


def psi(params: JacobiParams, t, q) -> np.ndarray:
    """Integrand profile sinh(t/2) (cosh(t/2) - 1 + q)^{-alpha-beta-2}.

    Evaluated through 2 sinh^2(t/4) for small-t stability; beyond t ~ 600 the
    hyperbolics overflow and the value is formed by exponent differences in
    log space, saturating cleanly to zero.
    """
    p = params.alpha + params.beta + 2.0
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    t, q = np.broadcast_arrays(t, q)
    out = np.empty(t.shape, dtype=float)
    big = t > 600.0
    small = ~big
    if np.any(small):
        ts = t[small]
        out[small] = np.sinh(ts / 2.0) * (cosh_half_minus_one(ts) + q[small]) ** (-p)
    if np.any(big):
        tb = t[big]
        # log sinh(t/2) = t/2 - log 2 (+ exponentially small), and the
        # denominator is dominated by cosh(t/2) ~ e^{t/2}/2.
        log_num = tb / 2.0 - np.log(2.0)
        log_den = tb / 2.0 - np.log(2.0)
        out[big] = np.exp(log_num - p * log_den)
    return out


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


def poisson_kernel_series(
    params: JacobiParams, t: float, theta, phi, nmax: int | None = None
) -> np.ndarray:
    """Half-kernel H_t(theta, phi) by the mode sum (series route)."""
    if nmax is None:
        nmax = n_max_for(params, t)
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    shape = theta.shape
    lam = eigenvalue(params, np.arange(nmax + 1))
    damp = np.exp(-t * np.sqrt(lam))
    tab_th = trig_poly_table(params, nmax, theta.ravel())
    tab_ph = trig_poly_table(params, nmax, phi.ravel())
    vals = 0.5 * np.einsum("n,nk,nk->k", damp, tab_th, tab_ph)
    return vals.reshape(shape)


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
    vals = [
        getattr(HeadKernels(params, th, ph, times, nodes=nodes or DK_NODES), name)()[0]
        for th, ph in zip(theta.ravel(), phi.ravel())
    ]
    return np.array(vals).reshape(theta.shape)


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
    from four below DK_NODES, until two consecutive counts agree to rel_tol
    elementwise.  Hitting max_nodes unconverged leaves an AccuracyWarning
    standing."""
    n = DK_NODES - 4
    prev = poisson_kernel_dk(params, t, theta, phi, n)
    while True:
        n = min(n + 4, max_nodes)
        vals = poisson_kernel_dk(params, t, theta, phi, n)
        gap = np.max(np.abs(vals - prev) / np.maximum(np.abs(vals), 1e-300))
        if gap <= rel_tol:
            return vals
        if n >= max_nodes:
            warnings.warn(
                f"integral route not converged to {rel_tol:.1e} at {n} nodes per cell; "
                "avoid t -> 0 near the diagonal",
                AccuracyWarning,
            )
            return vals
        prev = vals


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
    from .basis import phi_table, sym_eigenvalue

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

    Series route (any orders): the composition acts mode-wise.  For the even
    part the degree-n term picks up (-sqrt(lam_n))^m from time and
    (lam_n - lam_0)^{floor(N/2)} from pairs of lowerings, with an odd leftover
    lowering replacing the theta-factor by its first-order image.  The odd
    (reflected) part works the same through the shifted family.

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
    shape = theta.shape
    th, ph = theta.ravel(), phi.ravel()
    if nmax is None:
        nmax = n_max_for(params, t, extra_power=float(m + n_delta))
    half_pairs, odd_left = divmod(n_delta, 2)

    if parity == "even":
        n = np.arange(nmax + 1)
        lam = eigenvalue(params, n)
        gap = lam - params.lam0
        coeff = 0.5 * (-np.sqrt(lam)) ** m * np.exp(-t * np.sqrt(lam)) * gap**half_pairs
        tab_ph = trig_poly_table(params, nmax, ph)
        if odd_left == 0:
            tab_th = trig_poly_table(params, nmax, th)
            vals = np.einsum("n,nk,nk->k", coeff, tab_th, tab_ph)
        else:
            # delta Ptrig_n = -(1/2) sqrt(gap_n) sin(theta) Ptrig_{n-1}^{(+1,+1)}
            shifted_tab = trig_poly_table(params.shifted(), nmax - 1, th)
            factor = -0.5 * np.sqrt(gap[1:])
            vals = np.einsum(
                "n,nk,nk->k", coeff[1:] * factor, np.sin(th) * shifted_tab, tab_ph[1:]
            )
        return vals.reshape(shape)

    # odd parity: modes are the odd symmetrized functions, eigenvalues lam_{n+1}
    from .basis import phi_table

    n = np.arange(nmax + 1)
    lam = eigenvalue(params, n + 1)
    gap = lam - params.lam0
    coeff = (-np.sqrt(lam)) ** m * np.exp(-t * np.sqrt(lam)) * gap**half_pairs
    odd_tab_ph = phi_table(params, 2 * nmax + 1, ph)[1::2]
    if odd_left == 0:
        odd_tab_th = phi_table(params, 2 * nmax + 1, th)[1::2]
        vals = np.einsum("n,nk,nk->k", coeff, odd_tab_th, odd_tab_ph)
    else:
        # delta* Phi_{2n+1} = -(1/sqrt2) sqrt(gap) Ptrig_{n+1}
        tab_th = trig_poly_table(params, nmax + 1, th)[1:]
        factor = -np.sqrt(gap / 2.0)
        vals = np.einsum("n,nk,nk->k", coeff * factor, tab_th, odd_tab_ph)
    return vals.reshape(shape)


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
