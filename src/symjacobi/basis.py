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
    last_row,
    recurrence_rows,
    sin_product_derivative,
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
]


def half_index(n) -> np.ndarray:
    """Index map <n> = floor((n+1)/2) pairing each basis index with its degree."""
    n = np.asarray(n)
    return (n + 1) // 2


def sym_eigenvalue(params: JacobiParams, n) -> np.ndarray:
    """Eigenvalue lam_{<n>} of the symmetrized operator on Phi_n."""
    return eigenvalue(params, half_index(n))


def _families(params: JacobiParams, theta: np.ndarray) -> list:
    """The two recurrence families of the basis as (params, start) pairs:
    Phi_{2k} is row k of (alpha, beta) started at 1/sqrt(2), and Phi_{2k+1}
    row k of (alpha + 1, beta + 1) started at sin(theta) / (2 sqrt 2)."""
    return [(params, 1.0 / np.sqrt(2.0)), (params.shifted(), np.sin(theta) / (2.0 * np.sqrt(2.0)))]


def eval_phi(params: JacobiParams, n: int, theta) -> np.ndarray:
    """Evaluate the basis function Phi_n on (-pi, pi): row n of
    phi_table(params, n, theta), so it holds the bits of every longer table;
    built by core.last_row, one block of points at a time."""
    if n < 0:
        raise ValueError(f"basis index must be nonnegative, got {n}")
    return last_row(lambda th: phi_table(params, n, th), n + 1, theta)


def phi_table(params: JacobiParams, nmax: int, theta) -> np.ndarray:
    """All Phi_0..Phi_nmax at theta; shape (nmax+1, *theta.shape).

    One stacked pass of the normalized recurrence builds both families, so
    each pair of rows (2k, 2k + 1) is written as one contiguous block, with
    its start factor and normalization already in it: no pass over the
    finished table is left.  The table takes its own memory (one row more
    for even nmax, whose last odd row is dropped) plus a scratch pair of
    rows.  A row holds the same bits in every longer table, which is what
    eval_phi reads."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    theta = np.asarray(theta, dtype=float)
    pairs = np.empty((nmax // 2 + 1, 2) + theta.shape)
    recurrence_rows(pairs, np.cos(theta), _families(params, theta))
    return pairs.reshape((-1,) + theta.shape)[: nmax + 1]


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
    if parity == "odd" and not (order or lowered):
        # ModeRows' rows (1/2) sin(theta) P_n^{(alpha+1,beta+1)} bit for bit,
        # scaled in place in a table of their own: ModeRows keeps its
        # polynomial table for reuse, so it scales a copy
        rows = trig_poly_table(params.shifted(), n_modes - 1, theta)
        rows *= np.sin(theta)
        rows *= 0.5
        return rows
    return ModeRows(theta)(params, n_modes, parity, order, lowered)


class ModeRows:
    """The half-line rows of mode_table at one coordinate array.  Every table
    comes from the normalized polynomial tables (the even rows of order 0),
    and those are built once per parameter set and kept: row n does not
    depend on how many rows are built, so a request for fewer modes reads
    the leading rows of a longer table, and each is built `headroom` modes
    longer than its first request, for the one or two more modes that a
    lowering asks of it.  The other tables are a few products of these and
    are built per request, so the store holds only polynomial tables.
    ModeRows.pair gives the rows at two coordinate arrays from one store."""

    def __init__(self, theta, headroom: int = 0):
        self.theta = np.asarray(theta, dtype=float)
        self.headroom = headroom
        self._polys = {}
        self._shared = None

    @classmethod
    def pair(cls, theta, phi, headroom: int = 0):
        """ModeRows at the 1-d arrays theta and phi whose polynomial tables
        are one table over both, built by one recurrence per parameter set,
        each reading its own columns (the recurrence is elementwise, so the
        bits are those of separate tables)."""
        theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
        owner = cls(np.concatenate([theta, phi]), headroom)
        halves = cls(theta, headroom), cls(phi, headroom)
        for rows, cols in zip(halves, (slice(0, theta.size), slice(theta.size, None))):
            rows._shared = (owner, cols)
        return halves

    def _poly(self, params: JacobiParams, n_modes: int) -> np.ndarray:
        """The polynomial table of params with at least n_modes rows."""
        if self._shared is not None:
            owner, cols = self._shared
            return owner._poly(params, n_modes)[:, cols]
        table = self._polys.get(params)
        if table is None or table.shape[0] < n_modes:
            table = trig_poly_table(params, n_modes + self.headroom - 1, self.theta)
            self._polys[params] = table
        return table

    def __call__(self, params: JacobiParams, n_modes: int, parity: str, order=0, lowered=False):
        theta = self.theta
        if order not in (0, 1, 2):
            raise ValueError(f"unsupported derivative order {order}")
        if lowered:
            if parity != "odd":
                raise ValueError("lowered rows are defined for the odd family only")
            fac = -np.sqrt(mode_eigenvalues(params, n_modes, "odd") - params.lam0)
            rows = self(params, n_modes + 1, "even", order)[1:]
            return fac.reshape(fac.shape + (1,) * theta.ndim) * rows
        if parity == "even":
            if order == 0:
                return self._poly(params, n_modes)[:n_modes]
            n = np.arange(n_modes)
            fac = -0.5 * np.sqrt(n * (n + params.alpha + params.beta + 1.0))
            rows = np.zeros((n_modes,) + theta.shape)
            if n_modes > 1:
                rows[1:] = 2.0 * self(params, n_modes - 1, "odd", order - 1)
            return fac.reshape(fac.shape + (1,) * theta.ndim) * rows
        # odd family (1/2) sin(theta) P^{+1}_n, differentiated by the product rule
        derivs = [self(params.shifted(), n_modes, "even", k) for k in range(order + 1)]
        rows = sin_product_derivative(theta, derivs)
        rows *= 0.5
        return rows


def analyze(params: JacobiParams, f, nmax: int) -> np.ndarray:
    """Expansion coefficients <f, Phi_n> over dmu for n = 0..nmax.

    The half-line quadrature has nmax + 16 points, so band limits up to nmax
    are resolved exactly.

    Parameters
    ----------
    f : callable
        Vectorized function on (-pi, pi).
    nmax : int
        Largest basis index.

    Returns
    -------
    numpy.ndarray
        Coefficient vector of length nmax + 1.
    """
    rule = mu_plus_rule(params, nmax + 16)
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

