"""Jacobi polynomials in the trigonometric variable and their spectral data.

The objects here are the normalized trigonometric Jacobi polynomials

    Ptrig_n(theta) = c_n * P_n^{(alpha,beta)}(cos theta),

orthonormal on (0, pi) against the measure

    dmu+(theta) = sin^{2 alpha + 1}(theta/2) cos^{2 beta + 1}(theta/2) dtheta,

together with the eigenvalues lam_n = (n + (alpha + beta + 1)/2)^2 of the
associated second-order differential operator.  Polynomials are evaluated by
the standard three-term recurrence in x = cos theta; normalizing constants go
through log-gamma so large degrees and fractional parameters stay stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

__all__ = [
    "JacobiParams",
    "SpectrumEntry",
    "eval_jacobi",
    "jacobi_table",
    "norm_const",
    "eval_trig_poly",
    "trig_poly_table",
    "eval_trig_poly_deriv",
    "eigenvalue",
    "spectrum",
    "total_mass",
    "jacobi_operator_apply",
]


@dataclass(frozen=True)
class JacobiParams:
    """Parameter pair (alpha, beta) of a Jacobi family, both above -1.

    Attributes
    ----------
    alpha, beta : float
        Exponent parameters.  ``alpha + beta + 1 == 0`` is the critical case
        in which the bottom eigenvalue is exactly zero.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"alpha and beta must both exceed -1, got ({self.alpha}, {self.beta})"
            )

    @property
    def lam0(self) -> float:
        """Bottom eigenvalue ((alpha + beta + 1)/2)^2."""
        return ((self.alpha + self.beta + 1.0) / 2.0) ** 2

    @property
    def critical(self) -> bool:
        """True when alpha + beta + 1 == 0, so lam0 == 0."""
        return self.alpha + self.beta + 1.0 == 0.0

    @property
    def kernel_valid(self) -> bool:
        """True when both parameters are >= -1/2 (product-formula range)."""
        return self.alpha >= -0.5 and self.beta >= -0.5

    def shifted(self, da: int = 1, db: int = 1) -> "JacobiParams":
        """Parameter pair (alpha + da, beta + db)."""
        return JacobiParams(self.alpha + da, self.beta + db)


@dataclass(frozen=True)
class SpectrumEntry:
    """One row of the spectrum: degree, eigenvalue and its square root."""

    n: int
    lam: float
    sqrt_lam: float


def eval_jacobi(n: int, alpha: float, beta: float, x) -> np.ndarray:
    """Evaluate the Jacobi polynomial P_n^{(alpha,beta)} at x.

    Uses the three-term recurrence with P_0 = 1 and
    P_1 = (alpha + 1) + (alpha + beta + 2)(x - 1)/2, which is well defined for
    all alpha, beta > -1 (the leading recurrence coefficient never vanishes
    for degrees >= 2).

    Parameters
    ----------
    n : int
        Degree, >= 0.
    alpha, beta : float
        Parameters, both > -1.
    x : array_like
        Evaluation points in [-1, 1] (the recurrence itself is global).

    Returns
    -------
    numpy.ndarray
        Values P_n^{(alpha,beta)}(x), shaped like x.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    JacobiParams(alpha, beta)  # validate the parameter range
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        a1, a2, a3, a4 = _recurrence_coeffs(k, alpha, beta)
        p_cur, p_prev = ((a2 + a3 * x) * p_cur - a4 * p_prev) / a1, p_cur
    return p_cur


def jacobi_table(nmax: int, alpha: float, beta: float, x) -> np.ndarray:
    """All Jacobi polynomials up to degree nmax at x, shape (nmax+1, *x.shape).

    The recurrence runs in place in the output, with one scratch array of
    x's shape, so the table is built in its own memory plus one row."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    JacobiParams(alpha, beta)
    x = np.asarray(x, dtype=float)
    return _jacobi_rows(np.empty((nmax + 1,) + x.shape, dtype=float), alpha, beta, x)


def _jacobi_rows(out: np.ndarray, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Fill row k of out with P_k^(alpha,beta)(x), in place, and return out.

    The steps round as the expressions of eval_jacobi do (sums and products
    in commuted order are the same floats), so each row is bitwise equal to
    eval_jacobi; out may be a strided view such as a table's even rows."""
    out[0, ...] = 1.0
    if out.shape[0] == 1:
        return out
    # (alpha + 1) + (alpha + beta + 2) (x - 1) / 2
    p1 = out[1, ...]
    np.subtract(x, 1.0, out=p1)
    p1 *= alpha + beta + 2.0
    p1 /= 2.0
    p1 += alpha + 1.0
    scratch = np.empty_like(x)
    coeffs = _recurrence_coeffs(np.arange(2, out.shape[0] + 0.0), alpha, beta)
    for k, (a1, a2, a3, a4) in enumerate(zip(*(c.tolist() for c in coeffs)), start=2):
        # ((a2 + a3 x) P_{k-1} - a4 P_{k-2}) / a1
        row = out[k, ...]
        np.multiply(x, a3, out=row)
        row += a2
        row *= out[k - 1, ...]
        np.multiply(out[k - 2, ...], a4, out=scratch)
        row -= scratch
        row /= a1
    return out


def _recurrence_coeffs(k, alpha: float, beta: float):
    """Coefficients of a1 P_k = (a2 + a3 x) P_{k-1} - a4 P_{k-2} for k >= 2
    (a degree or an array of degrees)."""
    s = 2.0 * k + alpha + beta
    a1 = 2.0 * k * (k + alpha + beta) * (s - 2.0)
    a2 = (s - 1.0) * (alpha * alpha - beta * beta)
    a3 = (s - 1.0) * s * (s - 2.0)
    a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
    return a1, a2, a3, a4


def norm_const(params: JacobiParams, n) -> np.ndarray:
    """Normalizing constant c_n making c_n P_n(cos theta) a unit vector.

    c_n^2 = (2n + alpha + beta + 1) Gamma(n + alpha + beta + 1) Gamma(n + 1)
            / (Gamma(n + alpha + 1) Gamma(n + beta + 1)),
    with the n = 0 value read through the identity
    (alpha + beta + 1) Gamma(alpha + beta + 1) = Gamma(alpha + beta + 2), which
    also covers the critical case alpha + beta + 1 = 0.

    Accepts a scalar or integer array n; returns the matching shape.
    """
    a, b = params.alpha, params.beta
    n_arr = np.atleast_1d(np.asarray(n, dtype=float))
    if np.any(n_arr < 0):
        raise ValueError("degrees must be nonnegative")
    log_c2 = np.empty_like(n_arr)
    pos = n_arr > 0
    npos = n_arr[pos]
    log_c2[pos] = (
        np.log(2.0 * npos + a + b + 1.0)
        + gammaln(npos + a + b + 1.0)
        + gammaln(npos + 1.0)
        - gammaln(npos + a + 1.0)
        - gammaln(npos + b + 1.0)
    )
    log_c2[~pos] = gammaln(a + b + 2.0) - gammaln(a + 1.0) - gammaln(b + 1.0)
    c = np.exp(0.5 * log_c2)
    return c if np.ndim(n) else float(c[0])


def eval_trig_poly(params: JacobiParams, n: int, theta) -> np.ndarray:
    """Normalized trigonometric Jacobi polynomial c_n P_n(cos theta).

    Even in theta, so valid on (-pi, pi); orthonormal against dmu+ on (0, pi).
    """
    theta = np.asarray(theta, dtype=float)
    return norm_const(params, n) * eval_jacobi(n, params.alpha, params.beta, np.cos(theta))


def trig_poly_table(params: JacobiParams, nmax: int, theta) -> np.ndarray:
    """All normalized trig polynomials up to degree nmax; shape (nmax+1, ...)."""
    theta = np.asarray(theta, dtype=float)
    return _normalize_rows(jacobi_table(nmax, params.alpha, params.beta, np.cos(theta)), params)


def _normalize_rows(tab: np.ndarray, params: JacobiParams) -> np.ndarray:
    """Scale row n of a Jacobi table by c_n, in place, and return it."""
    c = np.asarray(norm_const(params, np.arange(tab.shape[0])))
    tab *= c.reshape(c.shape + (1,) * (tab.ndim - 1))
    return tab


def eval_trig_poly_deriv(params: JacobiParams, n: int, theta) -> np.ndarray:
    """First derivative in theta of the normalized trig polynomial.

    d/dtheta [c_n P_n(cos theta)] =
        -(1/2) sqrt(n (n + alpha + beta + 1)) sin(theta)
        * c_{n-1}^{(alpha+1,beta+1)} P_{n-1}^{(alpha+1,beta+1)}(cos theta),

    identically zero for n = 0.
    """
    theta = np.asarray(theta, dtype=float)
    if n == 0:
        return np.zeros_like(theta)
    shifted = params.shifted()
    factor = -0.5 * np.sqrt(n * (n + params.alpha + params.beta + 1.0))
    return factor * np.sin(theta) * eval_trig_poly(shifted, n - 1, theta)


def sin_product_derivative(x, derivs) -> np.ndarray:
    """The i-th x-derivative of sin(x) g(x), i = len(derivs) - 1, from the
    derivatives derivs = (g, g', ..., g^(i)) by the product rule:
    sum_k (C(i, k) sin^(i-k)(x)) g_k, summed in order k = 0..i."""
    i = len(derivs) - 1
    s, c = np.sin(x), np.cos(x)
    sin_derivs = (s, c, -s, -c)
    terms = [(math.comb(i, k) * sin_derivs[(i - k) % 4]) * g for k, g in enumerate(derivs)]
    return sum(terms[1:], terms[0])


def eigenvalue(params: JacobiParams, n) -> np.ndarray:
    """Eigenvalue lam_n = (n + (alpha + beta + 1)/2)^2 (scalar or array n)."""
    n = np.asarray(n, dtype=float)
    return (n + (params.alpha + params.beta + 1.0) / 2.0) ** 2


def spectrum(params: JacobiParams, nmax: int) -> list[SpectrumEntry]:
    """Spectrum rows (n, lam_n, sqrt(lam_n)) for n = 0..nmax."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    lam = eigenvalue(params, np.arange(nmax + 1))
    return [SpectrumEntry(n, float(l), float(np.sqrt(l))) for n, l in enumerate(lam)]


def total_mass(params: JacobiParams) -> float:
    """Total mass of dmu+ on (0, pi): Beta(alpha + 1, beta + 1)."""
    return float(np.exp(betaln(params.alpha + 1.0, params.beta + 1.0)))


def drift_coeff(params: JacobiParams, theta) -> np.ndarray:
    """First-order coefficient (alpha - beta + (alpha + beta + 1) cos theta)/sin theta.

    Singular at theta in {0, +-pi}; callers clamp or avoid the endpoints.
    """
    theta = np.asarray(theta, dtype=float)
    a, b = params.alpha, params.beta
    return (a - b + (a + b + 1.0) * np.cos(theta)) / np.sin(theta)


def jacobi_operator_apply(params: JacobiParams, f_values, theta_grid) -> np.ndarray:
    """Apply the second-order Jacobi operator on a uniform grid.

    Computes -f'' - [(alpha - beta + (alpha + beta + 1) cos theta)/sin theta] f'
    + lam0 f with second-order central differences.  The two boundary entries
    are returned as NaN; this routine is a finite-difference oracle for
    eigenfunction checks, not a spectral method.

    Parameters
    ----------
    f_values : array_like
        Samples of f on theta_grid.
    theta_grid : array_like
        Uniformly spaced points inside (0, pi).

    Returns
    -------
    numpy.ndarray
        Grid samples of the operator applied to f; endpoints NaN.
    """
    theta = np.asarray(theta_grid, dtype=float)
    f = np.asarray(f_values, dtype=float)
    if theta.shape != f.shape or theta.ndim != 1 or theta.size < 3:
        raise ValueError("need matching 1-d grids with at least 3 points")
    h = theta[1] - theta[0]
    if not np.allclose(np.diff(theta), h, rtol=1e-10, atol=0.0):
        raise ValueError("theta_grid must be uniformly spaced")
    out = np.full_like(f, np.nan)
    fpp = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    fp = (f[2:] - f[:-2]) / (2.0 * h)
    out[1:-1] = -fpp - drift_coeff(params, theta[1:-1]) * fp + params.lam0 * f[1:-1]
    return out
