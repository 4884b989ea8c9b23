"""Tests for quadrature rules and interval measures.

Moment oracles are closed-form Beta integrals; interval-measure references
were frozen from 30-digit mpmath quadrature of the density itself, and the
incomplete Beta function under them is checked against scipy's.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import betainc, betaln

from oracles import ball_comparable
from symjacobi import quadrature
from symjacobi.core import JacobiParams, eval_trig_poly, total_mass
from symjacobi.quadrature import (
    ball_measure,
    composite_gauss,
    gauss_jacobi_rule,
    interval_measure,
    mu_plus_rule,
)

PARAM_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0), (3.0, -0.5)]
# parameters of the interval-measure identities
_param = st.floats(min_value=-1.0, max_value=20.0, exclude_min=True)
ANGLES = st.lists(st.floats(min_value=0.0, max_value=np.pi), min_size=3, max_size=3)


class TestGaussJacobi:
    def test_legendre_small(self):
        """(0,0) rules: 1 node at 0 with weight 2; 2 nodes at +-1/sqrt(3)."""
        r1 = gauss_jacobi_rule(0.0, 0.0, 1)
        assert_allclose(r1.nodes, [0.0], atol=1e-15)
        assert_allclose(r1.weights, [2.0], rtol=1e-14)
        r2 = gauss_jacobi_rule(0.0, 0.0, 2)
        assert_allclose(np.sort(r2.nodes), [-(3.0**-0.5), 3.0**-0.5], rtol=1e-14)
        assert_allclose(r2.weights, [1.0, 1.0], rtol=1e-14)

    def test_moment_exactness(self):
        """Integral of (1+x)^j against the weight equals 2^{a+b+j+1} B(a+1, b+j+1),
        exactly for j <= 2n - 1."""
        for a, b in PARAM_PAIRS:
            n = 8
            rule = gauss_jacobi_rule(a, b, n)
            for j in range(2 * n):
                got = rule.integrate((1.0 + rule.nodes) ** j)
                ref = np.exp((a + b + j + 1) * np.log(2.0) + betaln(a + 1.0, b + j + 1.0))
                assert_allclose(got, ref, rtol=1e-12)

    def test_against_scipy(self):
        from scipy.special import roots_jacobi

        for a, b in [(0.5, 2.0), (3.0, -0.5), (-0.5, -0.5)]:
            x_ref, w_ref = roots_jacobi(24, a, b)
            rule = gauss_jacobi_rule(a, b, 24)
            assert_allclose(rule.nodes, x_ref, rtol=1e-11, atol=1e-12)
            assert_allclose(rule.weights, w_ref, rtol=1e-10, atol=1e-14)

    def test_cached_read_only(self):
        """A repeat call returns the cached rule itself, which is read-only."""
        rule = gauss_jacobi_rule(0.5, 2.0, 12)
        assert gauss_jacobi_rule(0.5, 2.0, 12) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_critical_sum_params(self):
        """alpha + beta = -1 exercises the cancelled recurrence branches."""
        rule = gauss_jacobi_rule(-0.25, -0.75, 12)
        ref = np.exp(0.0 * np.log(2.0) + betaln(0.75, 0.25))
        assert_allclose(rule.mass, ref, rtol=1e-12)

    def test_bad_count(self):
        with pytest.raises(ValueError, match="at least one node"):
            gauss_jacobi_rule(0.0, 0.0, 0)


class TestMuPlusRule:
    def test_mass(self):
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            assert_allclose(mu_plus_rule(p, 32).mass, total_mass(p), rtol=1e-12)

    def test_orthonormality_spot(self):
        p = JacobiParams(0.5, 2.0)
        rule = mu_plus_rule(p, 24)
        for n in range(6):
            for m in range(6):
                val = rule.integrate(
                    eval_trig_poly(p, n, rule.nodes) * eval_trig_poly(p, m, rule.nodes)
                )
                assert_allclose(val, 1.0 if n == m else 0.0, atol=1e-12)

    def test_nodes_sorted_in_domain(self):
        rule = mu_plus_rule(JacobiParams(3.0, -0.5), 16)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < np.pi


class TestIntervalMeasure:
    # (alpha, beta, lo, hi, value) frozen from mpmath quadrature
    FROZEN = [
        (-0.5, -0.5, 0.3, 1.7, 1.39999999999999997),
        (0.0, 0.0, 0.0, 0.9, 0.18919501586466778),
        (0.5, 2.0, 1.1, 3.0, 0.0853466089877333107),
        (3.0, -0.5, 0.0, np.pi, 0.914285714285714286),
        (0.5, 2.0, 2.2, np.pi, 0.00266920228272412485),
    ]

    def test_frozen_values(self):
        for a, b, lo, hi, ref in self.FROZEN:
            assert_allclose(interval_measure(JacobiParams(a, b), lo, hi), ref, rtol=1e-12)

    def test_against_quadrature_route(self):
        """Independent route: Gauss-Legendre on the interval applied to the
        density (valid since the density is smooth on interior intervals)."""
        p = JacobiParams(0.5, 2.0)
        gl = gauss_jacobi_rule(0.0, 0.0, 48)
        for lo, hi in [(0.4, 1.3), (1.0, 2.9)]:
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            th = mid + half * gl.nodes
            dens = np.sin(th / 2.0) ** (2 * p.alpha + 1) * np.cos(th / 2.0) ** (2 * p.beta + 1)
            assert_allclose(
                interval_measure(p, lo, hi), half * np.dot(gl.weights, dens), rtol=1e-10
            )

    def test_lebesgue_case(self):
        """(-1/2,-1/2) gives plain length."""
        p = JacobiParams(-0.5, -0.5)
        assert_allclose(interval_measure(p, 0.25, 2.0), 1.75, rtol=1e-13)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(alpha=_param, beta=_param, angles=ANGLES)
    def test_additive(self, alpha, beta, angles):
        """measure(lo, mid) + measure(mid, hi) = measure(lo, hi)."""
        p = JacobiParams(alpha, beta)
        lo, mid, hi = sorted(angles)
        whole = interval_measure(p, lo, hi)
        parts = interval_measure(p, lo, mid) + interval_measure(p, mid, hi)
        assert_allclose(parts, whole, rtol=0.0, atol=8 * np.finfo(float).eps * total_mass(p))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(alpha=_param, beta=_param)
    @example(alpha=float(np.nextafter(-1.0, 0.0)), beta=-0.5)
    def test_whole_interval_is_total_mass(self, alpha, beta):
        """The measure of (0, pi) is total_mass."""
        p = JacobiParams(alpha, beta)
        assert_allclose(interval_measure(p, 0.0, np.pi), total_mass(p), rtol=1e-15)


# Beta exponents a = alpha + 1, b = beta + 1 of the incomplete Beta checks
BETA_EXPONENT = st.floats(min_value=0.0, max_value=21.0, exclude_min=True)
# 0, 1, their float neighbours and the smallest normal float
X_ENDS = [0.0, float(np.nextafter(0.0, 1.0)), float(np.finfo(float).tiny),
          float(np.nextafter(1.0, 0.0)), 1.0]


class TestIncompleteBeta:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        a=BETA_EXPONENT, b=BETA_EXPONENT,
        x=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
    )
    @example(a=0.001, b=2.0, x=[0.5])
    @example(a=0.5, b=0.5, x=[1.0 - 1e-12])
    @example(a=21.0, b=21.0, x=[0.5])
    @example(a=1e-300, b=1e-300, x=[0.3])
    def test_matches_scipy(self, a, b, x):
        """Within 2e-14 of scipy's betainc.  Where the two differ by more,
        30-digit mpmath decides: scipy loses accuracy at the subnormal
        neighbour of 0 (1.5e-4 at a = 0.001, b = 2) and near 1 at
        a = b = 1/2 (2.8e-9 at the neighbour of 1)."""
        x = np.array(x + X_ENDS)
        got = quadrature._betainc(a, b, x)
        assert np.all((got >= 0.0) & (got <= 1.0))
        for i in np.flatnonzero(np.abs(got - betainc(a, b, x)) > 2e-14):
            with mpmath.workdps(30):
                want = float(mpmath.betainc(a, b, 0, x[i], regularized=True))
            assert abs(got[i] - want) <= 2e-14, (a, b, x[i])

    def test_beyond_gamma_overflow(self):
        """a + b >= 170 takes the front factor in logs."""
        x = np.linspace(0.0, 1.0, 101)
        for a, b in [(200.0, 150.0), (169.5, 0.4), (3.0, 400.0)]:
            assert_allclose(quadrature._betainc(a, b, x), betainc(a, b, x), rtol=0.0, atol=1e-12)


class TestBallMeasure:
    def test_clipping(self):
        p = JacobiParams(0.0, 0.0)
        full = ball_measure(p, 0.1, 10.0)
        assert_allclose(full, total_mass(p), rtol=1e-12)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ball_measure(JacobiParams(0.0, 0.0), 1.0, -0.1)

    def test_comparability(self):
        """ball_measure(theta, |theta-phi|) and the comparison expression stay
        within two-sided constant multiples: the ratio is positive, finite, and
        its spread stabilizes under sample refinement (the implied constants
        depend on alpha and beta, so no universal cap is asserted)."""
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            spreads = []
            for size, seed in [(400, 7), (4000, 8)]:
                rng = np.random.default_rng(seed)
                th = rng.uniform(1e-3, np.pi - 1e-3, size)
                ph = rng.uniform(1e-3, np.pi - 1e-3, size)
                keep = np.abs(th - ph) > 1e-4
                th, ph = th[keep], ph[keep]
                ratio = ball_measure(p, th, np.abs(th - ph)) / ball_comparable(p, th, ph)
                assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
                spreads.append(ratio.max() / ratio.min())
            assert spreads[1] < 8.0 * spreads[0], f"unstable spread at ({a},{b}): {spreads}"


class TestCompositeGauss:
    EDGES = {
        "uneven": np.array([-1.0, -0.3, 0.05, 0.5, 2.0]),
        "log-spaced": np.geomspace(1e-6, 10.0, 8),
    }

    @pytest.mark.parametrize("kind", ["uneven", "log-spaced"])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_exact_to_degree_2n_minus_1(self, kind, n):
        """Each panel gets an n-point Gauss rule, so every polynomial of
        degree <= 2n - 1 integrates exactly over the union of the panels."""
        edges = self.EDGES[kind]
        x, w = composite_gauss(edges, n)
        assert x.shape == w.shape == (n * (edges.size - 1),)
        assert np.all((x > edges[0]) & (x < edges[-1]))
        lo, hi = edges[0], edges[-1]
        for k in range(2 * n):
            exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            assert_allclose(w @ x**k, exact, rtol=1e-12, atol=1e-14)

    def test_degree_2n_not_exact(self):
        x, w = composite_gauss(np.array([0.0, 1.0]), 2)
        assert abs(w @ x**4 - 0.2) > 1e-3

    def test_legendre_rule_cached_read_only(self):
        """The Gauss-Legendre rule is built once per node count and shared by
        every composite rule; its arrays cannot be written."""
        x1, w1 = quadrature._legendre(6)
        x2, w2 = quadrature._legendre(6)
        assert x1 is x2 and w1 is w2
        with pytest.raises(ValueError):
            x1[0] = 0.0
        with pytest.raises(ValueError):
            w1[0] = 0.0
        ref_x, ref_w = np.polynomial.legendre.leggauss(6)
        assert np.array_equal(x1, ref_x) and np.array_equal(w1, ref_w)

    def test_panels_in_order(self):
        """Nodes come back panel by panel, increasing across the edges."""
        x, _ = composite_gauss([0.0, 1.0, 3.0], 4)
        assert np.all(np.diff(x) > 0)
        assert np.all(x[:4] < 1.0) and np.all(x[4:] > 1.0)
