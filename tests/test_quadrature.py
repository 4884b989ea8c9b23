"""Tests for quadrature rules and interval measures.

Moment oracles are closed-form Beta integrals; interval-measure references
were frozen from 30-digit mpmath quadrature of the density itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betaln

from symjacobi import quadrature
from symjacobi.core import JacobiParams, eval_trig_poly, total_mass
from symjacobi.quadrature import (
    QuadratureRule,
    ball_comparable,
    ball_measure,
    composite_gauss,
    gauss_jacobi_rule,
    interval_measure,
    mu_plus_rule,
    pi_rule,
)

PARAM_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0), (3.0, -0.5)]


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
        assert pi_rule(1.0, 12).nodes is gauss_jacobi_rule(0.5, 0.5, 12).nodes

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


class TestPiRule:
    def test_atoms_at_half(self):
        rule = pi_rule(-0.5, 48)
        assert_allclose(rule.nodes, [-1.0, 1.0], atol=0.0)
        assert_allclose(rule.weights, [0.5, 0.5], atol=0.0)

    def test_probability_mass(self):
        for a in [0.0, 0.5, 1.5, 3.0]:
            assert_allclose(pi_rule(a, 24).mass, 1.0, rtol=1e-13)

    def test_second_moment(self):
        """u^2 moment of the normalized measure is 1/(2 alpha + 2)."""
        for a in [-0.5, 0.0, 0.75, 2.0]:
            rule = pi_rule(a, 16)
            assert_allclose(rule.integrate(rule.nodes**2), 1.0 / (2.0 * a + 2.0), rtol=1e-12)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError, match="-1/2"):
            pi_rule(-0.75, 8)


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


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rule = mu_plus_rule(JacobiParams(0.5, 2.0), 12)
        path = tmp_path / "rule.csv"
        rule.to_csv(path)
        back = QuadratureRule.from_csv(path)
        assert_allclose(back.nodes, rule.nodes, rtol=0, atol=0)
        assert_allclose(back.weights, rule.weights, rtol=0, atol=0)
        header = path.read_text().splitlines()[0]
        assert header == "node,weight"


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
