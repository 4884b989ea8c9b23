"""The product-formula engine against an independent oracle.

The oracle does the v-integral of each moment in closed form,

    int (c - Bv)^-s dPi_b(v)    = c^-s 2F1(s/2, (s+1)/2; b+1; x^2),
    int v (c - Bv)^-s dPi_b(v)  = c^-s x s / (2(b+1)) 2F1((s+1)/2, s/2+1; b+2; x^2),
    int v^2 (c - Bv)^-s dPi_b(v) = c^-s [2F1(s/2, (s+1)/2; b+1; x^2)
                                   - (b+1/2)/(b+1) 2F1(s/2, (s+1)/2; b+2; x^2)],

with c = shift + 1 - A u and x = B/c (the Gegenbauer moment series and the
derivative rule of 2F1), and the u-integral on a fine rule graded toward
u = 1 far below the engine's floor.  It shares no code with the engine.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, hyp2f1, roots_jacobi

from symjacobi.core import JacobiParams
from symjacobi.product import pair_moments

BASE_SETS = [JacobiParams(0.0, 0.0), JacobiParams(0.5, 2.0), JacobiParams(6.0, 2.0),
             JacobiParams(-0.5, 1.0)]
PARAM_SETS = BASE_SETS + [p.shifted() for p in BASE_SETS]
PAIRS = [(0.001, 0.002), (3.14, 3.1405), (1.5, 1.6), (0.3, 3.0)]
# the head time grid's ends and two interior times
SHIFTS = 2.0 * np.sinh(np.array([1e-8, 1e-3, 0.1, 0.5]) / 4.0) ** 2


def _u_rule(a, x_min, n=20):
    """dPi_a in x = 1 - u: Gauss-Jacobi on [0, x_min] and [1, 2], n-point
    Gauss-Legendre panels halving from x = 1 down to x_min."""
    if a == -0.5:
        return np.array([0.0, 2.0]), np.array([0.5, 0.5])
    k = max(1, int(np.ceil(np.log2(1.0 / x_min))))
    edges = 2.0 ** -np.arange(k, -1, -1.0)
    y, wy = np.polynomial.legendre.leggauss(n)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    xm = (mid[:, None] + half[:, None] * y).ravel()
    wm = (half[:, None] * wy).ravel() * (xm * (2.0 - xm)) ** (a - 0.5)
    yj, wj = roots_jacobi(n, a - 0.5, 0.0)
    x0 = edges[0] * (1.0 - yj) / 2.0
    w0 = wj * (edges[0] / 2.0) ** (a + 0.5) * (2.0 - x0) ** (a - 0.5)
    yj, wj = roots_jacobi(n, 0.0, a - 0.5)
    x2 = 2.0 - (1.0 + yj) / 2.0
    w2 = wj * 0.5 ** (a + 0.5) * x2 ** (a - 0.5)
    norm = np.exp(gammaln(a + 1.0) - gammaln(a + 0.5)) / np.sqrt(np.pi)
    return np.concatenate([x0, xm, x2]), norm * np.concatenate([w0, wm, w2])


def oracle_moments(a, b, theta, phi, shifts, n_j=3):
    """(n_j, n_t, 6) moments of (shift + q)^(-(a+b+2)-j) against 1, u, v,
    u^2, uv, v^2."""
    A = np.sin(theta / 2.0) * np.sin(phi / 2.0)
    B = np.cos(theta / 2.0) * np.cos(phi / 2.0)
    q_floor = 1.0 - np.cos((theta - phi) / 2.0)
    out = np.empty((n_j, len(shifts), 6))
    for i, shift in enumerate(shifts):
        x, w = _u_rule(a, 1e-3 * (q_floor + shift) / A)
        u = 1.0 - x
        c = shift + 1.0 - A * u
        z = (B / c) ** 2
        for j in range(n_j):
            s = a + b + 2.0 + j
            f0 = c**-s * hyp2f1(s / 2.0, (s + 1.0) / 2.0, b + 1.0, z)
            f1 = c**-s * (B / c) * s / (2.0 * (b + 1.0)) * hyp2f1(
                (s + 1.0) / 2.0, s / 2.0 + 1.0, b + 2.0, z
            )
            f2 = f0 - c**-s * (b + 0.5) / (b + 1.0) * hyp2f1(
                s / 2.0, (s + 1.0) / 2.0, b + 2.0, z
            )
            out[j, i] = [w @ f0, w @ (u * f0), w @ f1, w @ (u * u * f0), w @ (u * f1), w @ f2]
    return out


@pytest.mark.parametrize("params", PARAM_SETS, ids=lambda p: f"{p.alpha:g},{p.beta:g}")
def test_moments_match_hypergeometric_oracle(params):
    """All six families, j = 0..2, every shift: within 1e-6 relative to the
    moment of the constant family, which bounds every family since |u|, |v|
    <= 1."""
    for theta, phi in PAIRS:
        want = oracle_moments(params.alpha, params.beta, theta, phi, SHIFTS)
        got = pair_moments(params.alpha, params.beta, theta, phi, SHIFTS)
        err = np.abs(got - want) / want[:, :, :1]
        assert err.max() < 1e-6, (theta, phi, err.max())


def test_oracle_inner_forms_at_atomic_limit():
    """At b = -1/2 the closed forms reduce to the two atoms v = +-1."""
    a, b, theta, phi = 0.5, -0.5, 0.9, 1.7
    want = oracle_moments(a, b, theta, phi, SHIFTS[1:2])
    got = pair_moments(a, b, theta, phi, SHIFTS[1:2])
    assert_allclose(got, want, rtol=1e-9)
