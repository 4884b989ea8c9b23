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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln, hyp2f1, roots_jacobi

from symjacobi.core import JacobiParams
from symjacobi import product
from symjacobi.product import HeadKernels, block_moments, pair_moments

BASE_SETS = [JacobiParams(0.0, 0.0), JacobiParams(0.5, 2.0), JacobiParams(6.0, 2.0),
             JacobiParams(-0.5, 1.0)]
PARAM_SETS = BASE_SETS + [p.shifted() for p in BASE_SETS]
# the sets the shared plain/shifted pass serves: alpha, beta > -1/2
SHARED_SETS = [p for p in PARAM_SETS if p.alpha > -0.5 and p.beta > -0.5]
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


def _rel_err(got, want):
    """Error relative to the constant-family moment, which bounds every
    family since |u|, |v| <= 1."""
    return np.max(np.abs(got - want) / want[:, :, :1])


@pytest.mark.parametrize("params", SHARED_SETS, ids=lambda p: f"{p.alpha:g},{p.beta:g}")
def test_shared_pass_matches_hypergeometric_oracle(params):
    """The shared pass's shifted moments are those of (a + 1, b + 1) at the
    power a + b + 4; both halves against the oracle within 1e-6."""
    a, b = params.alpha, params.beta
    for theta, phi in PAIRS:
        plain, shifted = pair_moments(a, b, theta, phi, SHIFTS, shifted=True)
        assert _rel_err(plain, oracle_moments(a, b, theta, phi, SHIFTS)) < 1e-6
        err = _rel_err(shifted, oracle_moments(a + 1.0, b + 1.0, theta, phi, SHIFTS))
        assert err < 1e-6, (theta, phi, err)


_ab = st.floats(min_value=-0.5, max_value=8.0, exclude_min=True)
_theta = st.floats(min_value=1e-3, max_value=np.pi - 1e-3)
_gap = st.floats(min_value=-3.0, max_value=0.5)  # log10 |theta - phi|


def _pair(theta, gap):
    phi = theta + 10.0**gap
    return (theta, phi) if phi < np.pi else (theta, theta - 10.0**gap)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(a=_ab, b=_ab, theta=_theta, gap=_gap)
@example(a=6.0, b=2.0, theta=3.08514, gap=-3.0)  # a + b > 4: more nodes per side
@example(a=8.0, b=7.5, theta=0.3, gap=-1.0)  # a + b > 10: two more
@example(a=-0.5 + 1e-9, b=1.0, theta=1.5, gap=-2.0)  # next to the atomic axis
def test_shared_pass_agrees_with_two_passes(a, b, theta, gap):
    """Over (-1/2, 8]^2: the shared pass's shifted moments match the
    separate shifted pass, and its plain moments the separate plain pass
    (which may take fewer nodes), within 1e-6 of the constant family."""
    theta, phi = _pair(theta, gap)
    plain, shifted = pair_moments(a, b, theta, phi, SHIFTS, shifted=True)
    assert _rel_err(shifted, pair_moments(a + 1.0, b + 1.0, theta, phi, SHIFTS)) < 1e-6
    assert _rel_err(plain, pair_moments(a, b, theta, phi, SHIFTS)) < 1e-6


@settings(derandomize=True, max_examples=20, deadline=None)
@given(b=st.floats(min_value=-0.5, max_value=8.0), theta=_theta, gap=_gap, swap=st.booleans())
def test_atomic_axis_takes_two_passes(b, theta, gap, swap):
    """At alpha = -1/2 (or beta) the identity degenerates: shifted=True gives
    the two separate passes bit for bit, and so does the head kernel."""
    theta, phi = _pair(theta, gap)
    a, b = (b, -0.5) if swap else (-0.5, b)
    plain, shifted = pair_moments(a, b, theta, phi, SHIFTS, shifted=True)
    assert np.array_equal(plain, pair_moments(a, b, theta, phi, SHIFTS))
    assert np.array_equal(shifted, pair_moments(a + 1.0, b + 1.0, theta, phi, SHIFTS))
    params, t = JacobiParams(a, b), np.array([1e-3, 0.3])
    one = HeadKernels(params, theta, phi, t, both=True)
    two = HeadKernels(params, theta, phi, t)
    for name in ("H", "H_dt_dth", "Ht", "Ht_low_dth"):
        assert np.array_equal(getattr(one, name)(), getattr(two, name)())


# a parameter drawn on the atomic axis -1/2 or anywhere above it
_ab_atomic = st.one_of(st.just(-0.5), st.floats(min_value=-0.5, max_value=6.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    a=_ab_atomic,
    b=_ab_atomic,
    base=st.lists(st.tuples(_theta, _gap), min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
    shifted=st.booleans(),
    n_j=st.integers(1, 3),
    refine=st.integers(1, 2),
)
def test_block_moments_equal_single_pairs(a, b, base, picks, shifted, n_j, refine):
    """A block with swaps and repeats: pair i's slice is bitwise the single
    pair_moments result at (theta[i], phi[i]), from one top-level
    pair_moments call per unordered pair of the block."""
    pairs = [_pair(*base[k % len(base)]) for k, _ in picks]
    pairs = [(ph, th) if swap else (th, ph) for (th, ph), (_, swap) in zip(pairs, picks)]
    theta, phi = np.array(pairs).T
    kw = dict(n_j=n_j, refine=refine, shifted=shifted)
    want = [pair_moments(a, b, th, ph, SHIFTS, **kw) for th, ph in pairs]
    inner, calls, depth = product.pair_moments, [], [0]

    def counted(*args, **kwargs):
        if not depth[0]:  # the atomic-axis fallback calls pair_moments again
            calls.append(tuple(args[2:4]))
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    product.pair_moments = counted
    try:
        got = block_moments(a, b, theta, phi, SHIFTS, **kw)
    finally:
        product.pair_moments = inner
    unordered = {(min(p), max(p)) for p in pairs}
    assert sorted(calls) == sorted(unordered)
    for g, w in zip(got if shifted else (got,), zip(*want) if shifted else (want,)):
        assert np.array_equal(g, np.stack(w, axis=2))
