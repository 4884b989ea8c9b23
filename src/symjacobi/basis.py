"""The symmetrized orthonormal basis on (-pi, pi) and its first-order calculus.

Basis functions indexed by n >= 0:

    Phi_{2k}(theta)   = Ptrig_k(theta) / sqrt(2)                  (even in theta)
    Phi_{2k-1}(theta) = sin(theta) Ptrig_{k-1}^{(alpha+1,beta+1)}(theta) / (2 sqrt 2)
                                                                  (odd in theta)

orthonormal in L^2 of the symmetric measure dmu on (-pi, pi).  The defining
form of the odd functions is a normalized first-order lowering of Ptrig_k; the
closed form above follows from the differentiation rule and is what gets
evaluated.

The first-order operator D (derivative plus the odd-part drift term) acts on
the basis by a signed index shift:

    D Phi_n = (-1)^{n+1} sqrt(lam_{<n>} - lam_0) Phi_{n - (-1)^n},   n >= 1,
    D Phi_0 = 0,

with <n> = floor((n+1)/2).  The sign table is frozen from direct pointwise
computation (branch choices in iterated-lowering displays differ by harmless
unit factors; magnitudes are what every norm identity uses).  Consequently
D^2 Phi_n = -(lam_{<n>} - lam_0) Phi_n.
"""

from __future__ import annotations

import numpy as np

from .core import (
    JacobiParams,
    eigenvalue,
    eval_trig_poly,
    eval_trig_poly_deriv,
    trig_poly_table,
)
from .quadrature import mu_plus_rule

__all__ = [
    "half_index",
    "sym_eigenvalue",
    "eval_phi",
    "phi_table",
    "mode_eigenvalues",
    "mode_table",
    "analyze",
    "synthesize",
    "d_apply_spectral",
    "d_apply_pointwise",
    "delta_apply",
    "delta_star_apply",
    "lowering_compose",
    "sym_operator_apply",
]

_CLAMP = 1e-12


def half_index(n) -> np.ndarray:
    """Index map <n> = floor((n+1)/2) pairing each basis index with its degree."""
    n = np.asarray(n)
    return (n + 1) // 2


def sym_eigenvalue(params: JacobiParams, n) -> np.ndarray:
    """Eigenvalue lam_{<n>} of the symmetrized operator on Phi_n."""
    return eigenvalue(params, half_index(n))


def eval_phi(params: JacobiParams, n: int, theta) -> np.ndarray:
    """Evaluate the basis function Phi_n on (-pi, pi)."""
    if n < 0:
        raise ValueError(f"basis index must be nonnegative, got {n}")
    theta = np.asarray(theta, dtype=float)
    if n % 2 == 0:
        return eval_trig_poly(params, n // 2, theta) / np.sqrt(2.0)
    k = (n + 1) // 2
    return (
        np.sin(theta)
        * eval_trig_poly(params.shifted(), k - 1, theta)
        / (2.0 * np.sqrt(2.0))
    )


def phi_table(params: JacobiParams, nmax: int, theta) -> np.ndarray:
    """All Phi_0..Phi_nmax at theta; shape (nmax+1, *theta.shape)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty((nmax + 1,) + theta.shape, dtype=float)
    even_tab = trig_poly_table(params, nmax // 2, theta)
    out[0::2] = even_tab / np.sqrt(2.0)
    if nmax >= 1:
        kmax = (nmax + 1) // 2
        odd_tab = trig_poly_table(params.shifted(), kmax - 1, theta)
        out[1::2] = np.sin(theta) * odd_tab / (2.0 * np.sqrt(2.0))
    return out


def mode_eigenvalues(params: JacobiParams, n_modes: int, parity: str = "full") -> np.ndarray:
    """Eigenvalue attached to each coefficient slot: lam_{<n>} under "full",
    lam_n for the even half-line family P_n and lam_{n+1} for the odd family
    (1/2) sin(theta) P_n^{(alpha+1,beta+1)}."""
    n = np.arange(n_modes)
    if parity == "full":
        return sym_eigenvalue(params, n)
    if parity == "even":
        return eigenvalue(params, n)
    return eigenvalue(params, n + 1)


def mode_table(
    params: JacobiParams, n_modes: int, theta, parity: str = "full", order=0, lowered=False
) -> np.ndarray:
    """Sampled mode functions, one row per coefficient slot.

    On the half-line parities, `order` (at most 2) takes that many theta
    derivatives of each row, and `lowered` (odd family only) first replaces
    slot n by its adjoint lowering -sqrt(lam_{n+1} - lam_0) P_{n+1}.  An
    even row's derivative is d P_n = -(1/2) sqrt(n(n+alpha+beta+1)) times
    twice the odd row n-1, so the two families' rows are built from each
    other down to plain polynomial tables.
    """
    theta = np.asarray(theta, dtype=float)
    if parity == "full":
        if order or lowered:
            raise ValueError("derivative and lowered rows need a half-line parity")
        return phi_table(params, n_modes - 1, theta)
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported derivative order {order}")
    if lowered:
        if parity != "odd":
            raise ValueError("lowered rows are defined for the odd family only")
        fac = -np.sqrt(mode_eigenvalues(params, n_modes, "odd") - params.lam0)
        rows = mode_table(params, n_modes + 1, theta, "even", order)[1:]
        return fac.reshape(fac.shape + (1,) * theta.ndim) * rows
    if parity == "even":
        if order == 0:
            return trig_poly_table(params, n_modes - 1, theta)
        n = np.arange(n_modes)
        fac = -0.5 * np.sqrt(n * (n + params.alpha + params.beta + 1.0))
        rows = np.zeros((n_modes,) + theta.shape)
        if n_modes > 1:
            rows[1:] = 2.0 * mode_table(params, n_modes - 1, theta, "odd", order - 1)
        return fac.reshape(fac.shape + (1,) * theta.ndim) * rows
    # odd family (1/2) sin(theta) P^{+1}_n, differentiated by the product rule
    base = trig_poly_table(params.shifted(), n_modes - 1, theta)
    sin, cos = np.sin(theta), np.cos(theta)
    if order == 0:
        return 0.5 * sin * base
    dbase = mode_table(params.shifted(), n_modes, theta, "even", 1)
    if order == 1:
        return 0.5 * (cos * base + sin * dbase)
    d2base = mode_table(params.shifted(), n_modes, theta, "even", 2)
    return 0.5 * (-sin * base + 2.0 * cos * dbase + sin * d2base)


def analyze(params: JacobiParams, f, nmax: int, nodes: int | None = None) -> np.ndarray:
    """Expansion coefficients <f, Phi_n> over dmu for n = 0..nmax.

    Parameters
    ----------
    f : callable
        Vectorized function on (-pi, pi).
    nmax : int
        Largest basis index.
    nodes : int, optional
        Half-line quadrature size; default resolves band limits up to nmax
        exactly (nmax + 16 points).

    Returns
    -------
    numpy.ndarray
        Coefficient vector of length nmax + 1.
    """
    if nodes is None:
        nodes = nmax + 16
    rule = mu_plus_rule(params, nodes)
    th = rule.nodes
    fp = np.asarray(f(th), dtype=float)
    fm = np.asarray(f(-th), dtype=float)
    tab = phi_table(params, nmax, th)
    # dmu integral as the sum of the two half-line integrals; the mirror half
    # picks up the parity of Phi_n.
    parity = np.where(np.arange(nmax + 1) % 2 == 0, 1.0, -1.0)
    return tab @ (rule.weights * fp) + parity * (tab @ (rule.weights * fm))


def synthesize(params: JacobiParams, coeffs, theta) -> np.ndarray:
    """Evaluate sum_n coeffs[n] Phi_n(theta)."""
    coeffs = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    tab = phi_table(params, len(coeffs) - 1, theta)
    return np.tensordot(coeffs, tab, axes=(0, 0))


def d_apply_spectral(params: JacobiParams, coeffs, order: int = 1) -> np.ndarray:
    """Apply the first-order operator `order` times in coefficient space.

    Uses the frozen signed shift rule; exact (no quadrature, no stencils).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = np.asarray(coeffs, dtype=float).copy()
    for _ in range(order):
        # an odd top index shifts up one slot, so the vector grows by one
        new = np.zeros(len(c) + 1)
        n = np.arange(len(c))
        s = np.sqrt(np.maximum(sym_eigenvalue(params, n) - params.lam0, 0.0))
        even_src = np.arange(2, len(c), 2)
        new[even_src - 1] -= s[even_src] * c[even_src]
        odd_src = np.arange(1, len(c), 2)
        new[odd_src + 1] += s[odd_src] * c[odd_src]
        c = new
    return c


def _central_diff(f, theta, h):
    return (np.asarray(f(theta + h), dtype=float) - np.asarray(f(theta - h), dtype=float)) / (
        2.0 * h
    )


def _odd_part(f, theta):
    return (np.asarray(f(theta), dtype=float) - np.asarray(f(-theta), dtype=float)) / 2.0


def drift_coeff_full(params: JacobiParams, theta) -> np.ndarray:
    """Odd-part drift coefficient (alpha - beta + (alpha+beta+1) cos theta)/sin theta,
    with the denominator clamped away from the interior zero set."""
    theta = np.asarray(theta, dtype=float)
    a, b = params.alpha, params.beta
    s = np.sin(theta)
    s = np.where(np.abs(s) < _CLAMP, np.copysign(_CLAMP, np.where(s == 0.0, 1.0, s)), s)
    return (a - b + (a + b + 1.0) * np.cos(theta)) / s


def d_apply_pointwise(params: JacobiParams, f, theta, h: float = 1e-5) -> np.ndarray:
    """Pointwise D f = f' + drift * f_odd for a callable f, by central
    differences of step h; intended for interior theta."""
    theta = np.asarray(theta, dtype=float)
    return _central_diff(f, theta, h) + drift_coeff_full(params, theta) * _odd_part(f, theta)


def delta_apply(f, theta, h: float = 1e-5) -> np.ndarray:
    """Raw lowering operator: plain derivative of the callable f."""
    return _central_diff(f, theta, h)


def delta_star_apply(params: JacobiParams, f, theta, h: float = 1e-5) -> np.ndarray:
    """Formal adjoint of the lowering operator:

    delta* f = -f' - (alpha + 1/2) cot(theta/2) f + (beta + 1/2) tan(theta/2) f.
    """
    theta = np.asarray(theta, dtype=float)
    half = theta / 2.0
    s = np.sin(half)
    s = np.where(np.abs(s) < _CLAMP, np.copysign(_CLAMP, np.where(s == 0.0, 1.0, s)), s)
    c = np.cos(half)
    c = np.where(np.abs(c) < _CLAMP, np.copysign(_CLAMP, np.where(c == 0.0, 1.0, c)), c)
    coeff = -(params.alpha + 0.5) * (c / s) + (params.beta + 0.5) * (s / c)
    return -_central_diff(f, theta, h) + coeff * np.asarray(f(theta), dtype=float)


def lowering_compose(
    params: JacobiParams, f, theta, n_apps: int, first: str = "delta", h: float = 1e-3
) -> np.ndarray:
    """Alternating composition of the lowering operator and its adjoint,
    applied `n_apps` times to the callable f by nested central differences.

    `first` names the operator applied first: "delta" gives ... delta* delta f
    (the even-count pattern), "delta_star" gives ... delta delta* f.  The
    nested stencil is O(h^2); evaluation count grows like 2^n_apps, so keep
    n_apps small (<= 4).
    """
    if first not in ("delta", "delta_star"):
        raise ValueError("first must be 'delta' or 'delta_star'")
    g = f
    use_delta = first == "delta"
    for _ in range(n_apps):
        g_prev = g
        if use_delta:
            g = lambda th, g_=g_prev: delta_apply(g_, th, h)
        else:
            g = lambda th, g_=g_prev: delta_star_apply(params, g_, th, h)
        use_delta = not use_delta
    return np.asarray(g(np.asarray(theta, dtype=float)), dtype=float)


def sym_operator_apply(params: JacobiParams, f, theta, h: float = 1e-4) -> np.ndarray:
    """Pointwise symmetrized operator -D^2 f + lam0 f via two nested
    pointwise D applications (finite differences, interior theta)."""
    theta = np.asarray(theta, dtype=float)
    df = lambda th: d_apply_pointwise(params, f, th, h)
    return -d_apply_pointwise(params, df, theta, h) + params.lam0 * np.asarray(
        f(theta), dtype=float
    )


def defining_odd_phi(params: JacobiParams, k: int, theta) -> np.ndarray:
    """Odd basis function by its defining formula (normalized lowering of the
    degree-k trig polynomial); used to cross-check the closed form."""
    if k < 1:
        raise ValueError("odd-index functions need k >= 1")
    gap = float(eigenvalue(params, k) - params.lam0)
    theta = np.asarray(theta, dtype=float)
    return -eval_trig_poly_deriv(params, k, theta) / np.sqrt(2.0 * gap)
