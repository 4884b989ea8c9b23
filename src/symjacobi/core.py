"""Jacobi polynomials in the trigonometric variable and their spectral data.

The objects here are the normalized trigonometric Jacobi polynomials

    Ptrig_n(theta) = c_n * P_n^{(alpha,beta)}(cos theta),

orthonormal on (0, pi) against the measure

    dmu+(theta) = sin^{2 alpha + 1}(theta/2) cos^{2 beta + 1}(theta/2) dtheta,

together with the eigenvalues lam_n = (n + (alpha + beta + 1)/2)^2 of the
associated second-order differential operator.  The normalized polynomials
are evaluated by one orthonormal three-term recurrence in x = cos theta,
whose coefficients are the entries of the Jacobi matrix (the matrix the
Gauss rules diagonalize), so its rows come out normalized with no pass over
them.  The same loop runs one family or several stacked ones into a table,
and a single degree is read as its row of that table, built over blocks of
points of about SWEEP_BYTES each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sweeps whose working values grow with their points or pairs take blocks of
# about this many bytes: the single-degree evaluators (a block's table) and
# the estimate ladders' FamilyBatch.values (a block's moments)
SWEEP_BYTES = 4 << 20

__all__ = [
    "JacobiParams",
    "SpectrumEntry",
    "eval_trig_poly",
    "trig_poly_table",
    "eval_trig_poly_deriv",
    "eigenvalue",
    "spectrum",
    "total_mass",
]


@dataclass(frozen=True)
class JacobiParams:
    """Parameter pair (alpha, beta) of a Jacobi family, both finite and above -1.

    Attributes
    ----------
    alpha, beta : float
        Exponent parameters.  ``alpha + beta + 1 == 0`` is the critical case
        in which the bottom eigenvalue is exactly zero.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not -1.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and exceed -1, got {value}")

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

    def shifted(self) -> "JacobiParams":
        """Parameter pair (alpha + 1, beta + 1)."""
        return JacobiParams(self.alpha + 1, self.beta + 1)


@dataclass(frozen=True)
class SpectrumEntry:
    """One row of the spectrum: degree, eigenvalue and its square root."""

    n: int
    lam: float
    sqrt_lam: float


def jacobi_matrix(alpha: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n entries) and off-diagonal (n - 1) of the Jacobi matrix of
    the weight (1 - x)^alpha (1 + x)^beta: the orthonormal polynomials satisfy
    x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1}.

    Each entry is a closed form good to a few ulps at any degree, and the
    first two are written out so that no 0/0 appears on the critical line
    alpha + beta + 1 = 0 or at alpha + beta = 0."""
    a, b = alpha, beta
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2.0))
    offsq = np.empty(n - 1)
    if n > 1:
        offsq[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    k = np.arange(2, n, dtype=float)
    offsq[1:] = (
        4.0 * k * (k + a) * (k + b) * (k + a + b)
        / ((2.0 * k + a + b) ** 2 * (2.0 * k + a + b + 1.0) * (2.0 * k + a + b - 1.0))
    )
    return diag, np.sqrt(offsq)


def recurrence_rows(out: np.ndarray, x: np.ndarray, families) -> np.ndarray:
    """Normalized rows start * c_k P_k^(a,b)(x), one per row of out, of one
    or more families stacked on out's second axis, written in place; returns
    out.

    out has shape (rows, len(families)) + x.shape, and families holds one
    (params, start) pair per family.  Row 0 is start * c_0 and, with the
    Jacobi-matrix entries of each family,

        row_k = (A_k + B_k x) row_{k-1} - C_k row_{k-2},
        B_k = 1 / off[k-1],  A_k = -diag[k-1] / off[k-1],  C_k = off[k-2] / off[k-1],

    so each row is built normalized, times its family's start factor, by
    five in-place array operations with one scratch row.  Row k reads only
    the rows below it, so it holds the same bits in every longer table."""
    coeffs = np.zeros((out.shape[0] - 1, 3, len(families)))
    for f, (params, start) in enumerate(families):
        diag, off = jacobi_matrix(params.alpha, params.beta, out.shape[0])
        coeffs[:, 0, f] = -diag[:-1] / off
        coeffs[:, 1, f] = 1.0 / off
        coeffs[1:, 2, f] = off[:-1] / off[1:]
        np.multiply(start, math.sqrt(1.0 / total_mass(params)), out=out[0, f, ...])
    # (A_k, B_k, C_k) per step: Python floats for one family (the cheaper
    # operand on short rows, and the same product), else one column per family
    if len(families) == 1:
        steps = coeffs[..., 0].tolist()
    else:
        steps = coeffs.reshape(coeffs.shape + (1,) * x.ndim)
    rows = list(out)
    scratch = np.empty(out.shape[1:])
    for k, (a, b, c) in enumerate(steps, start=1):
        row = rows[k]
        np.multiply(x, b, out=row)
        row += a
        row *= rows[k - 1]
        if k > 1:
            np.multiply(rows[k - 2], c, out=scratch)
            row -= scratch
    return out


def eval_trig_poly(params: JacobiParams, n: int, theta) -> np.ndarray:
    """Normalized trigonometric Jacobi polynomial c_n P_n(cos theta).

    Even in theta, so valid on (-pi, pi); orthonormal against dmu+ on (0, pi).
    Row n of trig_poly_table(params, n, theta), so it holds the bits of row n
    of every longer table; built by last_row, one block of points at a time.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return last_row(lambda th: trig_poly_table(params, n, th), n + 1, theta)


def last_row(table_of, n_rows: int, theta) -> np.ndarray:
    """The last of the n_rows rows of table_of(points), at each theta and in
    theta's shape.  The raveled theta is swept in blocks of points whose
    table takes about SWEEP_BYTES, so the call holds one block's table, not
    the whole one.  A table built elementwise in theta, as the recurrence
    tables are, gives each point the bits of one whole-array table."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    out = np.empty(flat.size)
    step = max(1, SWEEP_BYTES // (8 * n_rows))
    for i in range(0, flat.size, step):
        out[i : i + step] = table_of(flat[i : i + step])[n_rows - 1]
    return out.reshape(theta.shape)[()]


def trig_poly_table(params, nmax: int, theta) -> np.ndarray:
    """All normalized trig polynomials up to degree nmax; shape (nmax+1, ...).

    params is one JacobiParams, or a sequence of them whose tables one
    stacked recurrence pass builds on a second axis, shape
    (nmax+1, len(params), ...); each family's slice holds the bits of its
    own table.  Built in place by recurrence_rows, so the table takes its
    own memory plus one scratch row."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    theta = np.asarray(theta, dtype=float)
    stacked = not isinstance(params, JacobiParams)
    families = [(p, 1.0) for p in params] if stacked else [(params, 1.0)]
    rows = np.empty((nmax + 1, len(families)) + theta.shape)
    recurrence_rows(rows, np.cos(theta), families)
    return rows if stacked else rows[:, 0]


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
    a1, b1 = params.alpha + 1.0, params.beta + 1.0
    return math.exp(math.lgamma(a1) + math.lgamma(b1) - math.lgamma(a1 + b1))
