"""Independent reference forms that the tests check the closed forms against.

These are finite-difference and sampled stand-ins for operators the package
computes exactly: the first-order calculus of the symmetrized basis by
central differences, the second-order Jacobi operator on a uniform grid, the
table of plain Jacobi polynomials by their classical recurrence, the split of
full-basis coefficients into the two half-line families, the kernel's time
derivatives and lowering compositions by one mode sum or the fixed-count
integral route, the two-sided ball-measure comparison expression, the
pointwise exact lemma quotients, and the Trig and Comp lemma sups over their
whole sample sets at once.  The package itself does not call them.
"""

from __future__ import annotations

import numpy as np

from symjacobi import estimates, kernels
from symjacobi.core import JacobiParams, eigenvalue, eval_trig_poly_deriv
from symjacobi.estimates import EstimateReport, _exact_quotients
from symjacobi.kernels import q_fn, q_theta

_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# first-order calculus of the symmetrized basis, by central differences


def _central_diff(f, theta, h):
    return (np.asarray(f(theta + h), dtype=float) - np.asarray(f(theta - h), dtype=float)) / (
        2.0 * h
    )


def _odd_part(f, theta):
    return (np.asarray(f(theta), dtype=float) - np.asarray(f(-theta), dtype=float)) / 2.0


def drift_coeff(params: JacobiParams, theta) -> np.ndarray:
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
    return _central_diff(f, theta, h) + drift_coeff(params, theta) * _odd_part(f, theta)


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


# ---------------------------------------------------------------------------
# the plain Jacobi polynomials by their classical recurrence


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

    The classical recurrence a1 P_k = (a2 + a3 x) P_{k-1} - a4 P_{k-2} from
    P_0 = 1 and P_1 = (alpha + 1) + (alpha + beta + 2)(x - 1)/2, well defined
    for all alpha, beta > -1 (a1 never vanishes for k >= 2).  Row k reads
    only the rows below it, so it holds the same bits in every longer table."""
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


# ---------------------------------------------------------------------------
# the second-order Jacobi operator on a uniform grid


def jacobi_operator_apply(params: JacobiParams, f_values, theta_grid) -> np.ndarray:
    """Apply the second-order Jacobi operator on a uniform grid.

    Computes -f'' - [(alpha - beta + (alpha + beta + 1) cos theta)/sin theta] f'
    + lam0 f with second-order central differences.  The two boundary entries
    are returned as NaN; this routine is a finite-difference oracle for
    eigenfunction checks, not a spectral method.  Only interior points of
    (0, pi) enter drift_coeff, where its clamp never acts.

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


# ---------------------------------------------------------------------------
# full-basis coefficients and the two half-line families


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


# ---------------------------------------------------------------------------
# derivative kernels, by one mode sum or the fixed-count integral route


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

    Integral route: the HeadKernels profile of the same mode_sum spec at the
    fixed kernels.DK_NODES nodes per cell side, implemented for
    m + n_delta <= 1 (first-order differentiation under the double average),
    used for cross-validation.

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
        return kernels._dk_eval(params, t, theta, phi, spec, kernels.DK_NODES)
    if route != "series":
        raise ValueError(f"unknown route {route!r}")
    nmax = kernels.n_max_for(params, t, extra_power=float(m + n_delta))
    vals = kernels.mode_sum(params, spec, t, theta, phi, pairs, nmax + 1)
    return vals.reshape(np.broadcast_shapes(np.shape(theta), np.shape(phi)))


# ---------------------------------------------------------------------------
# sampled comparison forms


def ball_comparable(params: JacobiParams, theta, phi) -> np.ndarray:
    """Two-sided comparison expression for the ball measure at radius
    |theta - phi|:

        |theta - phi| (theta + phi)^{2 alpha + 1} (2 pi - theta - phi)^{2 beta + 1}.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = theta + phi
    return (
        np.abs(theta - phi)
        * s ** (2.0 * params.alpha + 1.0)
        * (2.0 * np.pi - s) ** (2.0 * params.beta + 1.0)
    )


def lemma_estimates_exact(theta: float, phi: float, theta_tilde: float | None = None):
    """The two quotients of _exact_quotients, with constant exactly one;
    (b) requires 2 |theta - theta~| <= |theta - phi|."""
    if not (0.0 < theta < np.pi and 0.0 < phi < np.pi):
        raise ValueError("theta and phi must lie in (0, pi)")
    if theta_tilde is None:
        theta_tilde = theta
    if 2.0 * abs(theta - theta_tilde) > abs(theta - phi):
        raise ValueError("theta~ violates 2|theta - theta~| <= |theta - phi|")
    return _exact_quotients(theta, phi, theta_tilde)


def nested_samples(seed: int, level: int) -> np.ndarray:
    """Random (theta, phi, u, v) tuples, nested across levels: level 1 has
    NESTED_BASE of them, and level l extends level l-1 by a freshly seeded
    block, so sample sets only grow.  The whole-array form of the samples
    that lemma_levels draws chunk by chunk."""
    blocks = []
    for lv in range(1, level + 1):
        count = estimates.NESTED_BASE if lv == 1 else estimates.NESTED_BASE * 2 ** (lv - 2)
        rng = np.random.default_rng(seed + lv)
        blocks.append(
            np.column_stack(
                [
                    rng.uniform(0.0, np.pi, count),
                    rng.uniform(0.0, np.pi, count),
                    rng.uniform(-1.0, 1.0, count),
                    rng.uniform(-1.0, 1.0, count),
                ]
            )
        )
    return np.concatenate(blocks, axis=0)


def nested_lemma_reports(which: str, levels) -> tuple:
    """The Trig or Comp reports of lemma_levels from the whole sample set of
    the deepest level at once: each level's sup and first argmax over the
    leading NESTED_BASE 2^(level - 1) samples (those with theta != phi for
    Comp, which counts only them)."""
    th, ph, u, v = nested_samples(20 if which == "Trig" else 21, max(levels)).T
    counts = [estimates.NESTED_BASE * 2 ** (level - 1) for level in levels]
    if which == "Trig":
        q = q_fn(th, ph, u, v)
        qth = q_theta(th, ph, u, v)
        ratio = np.abs(qth) / np.sqrt(np.maximum(q, 1e-300))
    else:
        keep = np.abs(th - ph) > 1e-12
        counts = [int(np.count_nonzero(keep[:n])) for n in counts]
        th, ph, u, v = th[keep], ph[keep], u[keep], v[keep]
        tht = th + (ph - th) / 4.0
        q1 = np.maximum(q_fn(th, ph, u, v), 1e-300)
        q2 = np.maximum(q_fn(tht, ph, u, v), 1e-300)
        ratio = np.maximum(q1 / q2, q2 / q1)
    reports = []
    for level, n in zip(levels, counts):
        k = int(np.argmax(ratio[:n]))
        reports.append(EstimateReport(which, level, float(ratio[k]), n, (th[k], ph[k])))
    return tuple(reports)
